package netgen

// Pure-Go batch kernel emission (ModeBatch): for every width, two
// fused kernels, generic over cmp.Ordered, that sort many small slices
// per call —
//
//   - batchCols<N>Ordered(data, m): column-major ("vertical") layout,
//     column w at data[w*m:(w+1)*m], logical row r = {data[w*m+r]}w.
//     One loop over rows; the whole comparator schedule runs on locals
//     per row, so the comparator cost is amortized over the batch with
//     no per-slice dispatch and no data-dependent branches.
//   - batchFlat<N>Ordered(data, m): row-major layout, row r contiguous
//     at data[r*n:(r+1)*n]. Same fused schedule, one slice-header bound
//     check per row instead of per call.
//
// On amd64 the columnar layout additionally gets AVX-512 kernels for
// int, uint64 and float64 (see batchasm.go); these Go versions are the
// portable fallback, the kernels of every other element type, and the
// differential oracle for the assembly.

import (
	"fmt"
	"strings"
)

// batchFile is the generated file holding the pure-Go batch kernels.
const batchFile = "batch_ordered.go"

// genBatchKernelFile emits every pure-Go batch kernel.
func genBatchKernelFile(opts Options, kernels []kernel) ([]byte, error) {
	var b strings.Builder
	header(opts, &b)
	fmt.Fprintf(&b, "package %s\n\nimport \"cmp\"\n\n", opts.Package)
	for i, k := range kernels {
		if i > 0 {
			b.WriteString("\n")
		}
		genBatchColsKernel(&b, k)
		b.WriteString("\n")
		genBatchFlatKernel(&b, k)
	}
	return gofmt(b.String(), batchFile)
}

// batchExchange emits one compare-exchange on the locals v<lo>, v<hi>.
//
// The min/max builtins compile to conditional moves at integer element
// types and to branch-free min/max at float64, and keep the float bit
// multiset on ±0 (min prefers -0, max +0). They would turn one NaN into
// two, so the batch kernels require NaN-free input (the shufflenet
// façades prescan), and at string types they compare twice per
// exchange.
func batchExchange(b *strings.Builder, lo, hi int) {
	fmt.Fprintf(b, "\t\tv%d, v%d = min(v%d, v%d), max(v%d, v%d)\n", lo, hi, lo, hi, lo, hi)
}

// genBatchColsKernel emits the column-major fused kernel of one width.
func genBatchColsKernel(b *strings.Builder, k kernel) {
	name := fmt.Sprintf("batchCols%dOrdered", k.n)
	fmt.Fprintf(b, "// %s sorts each of the m rows of a %d-column\n", name, k.n)
	fmt.Fprintf(b, "// column-major batch: column w is data[w*m:(w+1)*m], row r is the\n")
	fmt.Fprintf(b, "// %d values {data[w*m+r]}. Depth %d, size %d", k.n, k.depth, k.size)
	if k.note != "" {
		fmt.Fprintf(b, ", %s", k.note)
	}
	b.WriteString(".\n")
	fmt.Fprintf(b, "func %s[T cmp.Ordered](data []T, m int) {\n", name)
	for w := 0; w < k.n; w++ {
		fmt.Fprintf(b, "\tc%d := data[%d*m : %d*m]\n", w, w, w+1)
	}
	b.WriteString("\tfor r := range c0 {\n")
	b.WriteString("\t\t")
	for w := 0; w < k.n; w++ {
		if w > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "v%d", w)
	}
	b.WriteString(" := ")
	for w := 0; w < k.n; w++ {
		if w > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "c%d[r]", w)
	}
	b.WriteString("\n")
	for li, lv := range k.levels {
		if len(lv) == 0 {
			continue
		}
		fmt.Fprintf(b, "\n\t\t// level %d\n", li+1)
		for _, p := range lv {
			batchExchange(b, p[0], p[1])
		}
	}
	b.WriteString("\n\t\t")
	for w := 0; w < k.n; w++ {
		if w > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "c%d[r]", w)
	}
	b.WriteString(" = ")
	for w := 0; w < k.n; w++ {
		if w > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "v%d", k.outPerm[w])
	}
	b.WriteString("\n\t}\n}\n")
}

// genBatchFlatKernel emits the row-major fused kernel of one width.
func genBatchFlatKernel(b *strings.Builder, k kernel) {
	name := fmt.Sprintf("batchFlat%dOrdered", k.n)
	fmt.Fprintf(b, "// %s sorts each of the m contiguous width-%d rows of a\n", name, k.n)
	fmt.Fprintf(b, "// row-major batch in place: row r is data[r*%d:(r+1)*%d].\n", k.n, k.n)
	fmt.Fprintf(b, "func %s[T cmp.Ordered](data []T, m int) {\n", name)
	fmt.Fprintf(b, "\tfor r := 0; r < m; r++ {\n")
	fmt.Fprintf(b, "\t\ts := data[r*%d : r*%d+%d : r*%d+%d]\n", k.n, k.n, k.n, k.n, k.n)
	b.WriteString("\t\t")
	for w := 0; w < k.n; w++ {
		if w > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "v%d", w)
	}
	b.WriteString(" := ")
	for w := 0; w < k.n; w++ {
		if w > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "s[%d]", w)
	}
	b.WriteString("\n")
	for li, lv := range k.levels {
		if len(lv) == 0 {
			continue
		}
		fmt.Fprintf(b, "\n\t\t// level %d\n", li+1)
		for _, p := range lv {
			batchExchange(b, p[0], p[1])
		}
	}
	b.WriteString("\n\t\t")
	for w := 0; w < k.n; w++ {
		if w > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "s[%d]", w)
	}
	b.WriteString(" = ")
	for w := 0; w < k.n; w++ {
		if w > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "v%d", k.outPerm[w])
	}
	b.WriteString("\n\t}\n}\n")
}
