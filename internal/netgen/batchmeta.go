package netgen

// Batch meta-file emission (ModeBatch): "batch.go" carries the public
// batch API of the generated package — shape validation, the generic
// entry points over the pure-Go kernels, the SIMD hook tables that
// batch_amd64.go fills in at init when AVX-512 is available, the
// per-type dispatch onto them, the pooled transpose scratch behind the
// row-major SIMD path, and the SetBatchSIMD test/bench toggle.

import (
	"fmt"
	"strings"
)

// genBatchMetaFile emits "batch.go".
func genBatchMetaFile(opts Options, kernels []kernel) ([]byte, error) {
	simd := len(simdWidths(kernels)) > 0

	var b strings.Builder
	header(opts, &b)
	b.WriteString("// Batch entry points: sort many same-width slices per call.\n")
	b.WriteString("//\n")
	b.WriteString("// Batch takes the column-major (\"vertical\") layout — data holds n\n")
	b.WriteString("// columns of length m, column w at data[w*m:(w+1)*m], and logical row\n")
	b.WriteString("// r is the n values {data[w*m+r]}. Every row is sorted in place.\n")
	b.WriteString("// BatchFlat takes the row-major layout — m contiguous rows of width\n")
	b.WriteString("// n. Both report whether a kernel of that width was available; on\n")
	b.WriteString("// false the data is untouched.\n")
	fmt.Fprintf(&b, "package %s\n\n", opts.Package)
	if simd {
		b.WriteString("import (\n\t\"cmp\"\n\t\"sync\"\n\t\"unsafe\"\n)\n\n")
	} else {
		b.WriteString("import \"cmp\"\n\n")
	}

	minW, maxW := kernels[0].n, kernels[len(kernels)-1].n
	fmt.Fprintf(&b, "// Batch kernel widths span [BatchMinWidth, BatchMaxWidth];\n// BatchWidths lists the ones actually present.\nconst (\n\tBatchMinWidth = %d\n\tBatchMaxWidth = %d\n)\n\n", minW, maxW)
	b.WriteString("// BatchWidths returns the batch kernel widths available, ascending.\nfunc BatchWidths() []int {\n\treturn []int{")
	for i, k := range kernels {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", k.n)
	}
	b.WriteString("}\n}\n\n")

	// SIMD switches. Emitted even without SIMD kernels so the API is
	// stable across generation configurations.
	b.WriteString(`// batchSIMDAvail records whether the CPU supports the AVX-512 batch
// kernels (set at init by the amd64 build); batchSIMDOn is the live
// switch.
var (
	batchSIMDAvail bool
	batchSIMDOn    bool
)

// BatchSIMDAvailable reports whether AVX-512 batch kernels are
// compiled in and supported by this CPU.
func BatchSIMDAvailable() bool { return batchSIMDAvail }

// BatchSIMD reports whether the batch entry points currently use the
// AVX-512 kernels.
func BatchSIMD() bool { return batchSIMDOn }

// SetBatchSIMD toggles the AVX-512 batch kernels (a no-op request when
// they are unavailable) and returns the previous setting. It is meant
// for tests and benchmarks that pin down one implementation; it is not
// synchronized with concurrent Batch calls.
func SetBatchSIMD(on bool) (prev bool) {
	prev = batchSIMDOn
	batchSIMDOn = on && batchSIMDAvail
	return prev
}

// batchDims validates a column-major batch shape and returns its
// width. trivial means there is nothing to sort (no rows, or rows
// shorter than 2); ok is false when the shape fits no kernel.
func batchDims(lenData, m, maxWidth int) (n int, trivial, ok bool) {
	if lenData == 0 {
		return 0, true, m >= 0
	}
	if m <= 0 {
		return 0, false, false
	}
	n = lenData / m
	if n*m != lenData || n > maxWidth {
		return 0, false, false
	}
	return n, n < 2, true
}

// batchFlatDims validates a row-major batch shape and returns its row
// count, with the same trivial/ok split as batchDims.
func batchFlatDims(lenData, width, maxWidth int) (m int, trivial, ok bool) {
	if lenData == 0 {
		return 0, true, width >= 0
	}
	if width <= 0 {
		return 0, false, false
	}
	m = lenData / width
	if m*width != lenData || width > maxWidth {
		return 0, false, false
	}
	return m, width < 2, true
}

`)

	if simd {
		genBatchSIMDDispatch(&b)
	}

	b.WriteString(`// Batch sorts, in place, every row of the column-major batch: data
// holds len(data)/m columns of length m, column w at
// data[w*m:(w+1)*m]. It reports whether a kernel of that width was
// available; on false the data is untouched. int, uint64 and float64
// batches run the AVX-512 kernels when they are enabled; every other
// element type, and those three without AVX-512, run the generic Go
// kernels. Input must be NaN-free (the shufflenet façades prescan):
// the kernels' min and max would turn one NaN into two. ±0 bit
// patterns are preserved as a multiset.
func Batch[T cmp.Ordered](data []T, m int) bool {
	n, trivial, ok := batchDims(len(data), m, BatchMaxWidth)
	if !ok {
		return false
	}
	if trivial {
		return true
	}
`)
	if simd {
		b.WriteString("\tif batchSIMDOn && simdCols(data, n, m) {\n\t\treturn true\n\t}\n")
	}
	b.WriteString("\tswitch n {\n")
	for _, k := range kernels {
		fmt.Fprintf(&b, "\tcase %d:\n\t\tbatchCols%dOrdered(data, m)\n", k.n, k.n)
	}
	b.WriteString(`	default:
		return false
	}
	return true
}

// BatchFlat sorts, in place, every row of the row-major batch: data
// holds len(data)/width contiguous rows of the given width. It reports
// whether a kernel of that width was available; on false the data is
// untouched. Kernels and input contract as for Batch; the AVX-512 path
// transposes through pooled scratch.
func BatchFlat[T cmp.Ordered](data []T, width int) bool {
	m, trivial, ok := batchFlatDims(len(data), width, BatchMaxWidth)
	if !ok {
		return false
	}
	if trivial {
		return true
	}
`)
	if simd {
		b.WriteString("\tif batchSIMDOn && simdFlat(data, width, m) {\n\t\treturn true\n\t}\n")
	}
	b.WriteString("\tswitch width {\n")
	for _, k := range kernels {
		fmt.Fprintf(&b, "\tcase %d:\n\t\tbatchFlat%dOrdered(data, m)\n", k.n, k.n)
	}
	b.WriteString("\tdefault:\n\t\treturn false\n\t}\n\treturn true\n}\n")

	return gofmt(b.String(), "batch.go")
}

// genBatchSIMDDispatch emits the AVX-512 hooks of batch.go: the
// transpose and kernel tables the amd64 init fills in, and the
// per-type dispatch from the generic entry points onto them.
func genBatchSIMDDispatch(b *strings.Builder) {
	b.WriteString(`// batchTransTo and batchTransFrom hold the AVX-512 transpose helpers
// between the row-major and column-major layouts (filled in by the
// amd64 init; element type is any 64-bit scalar, hence the untyped
// pointers). batchTransTo[n] gathers m rows of width n into columns;
// batchTransFrom[n] scatters them back.
var (
	batchTransTo   [BatchMaxWidth + 1]func(dst, src unsafe.Pointer, m int)
	batchTransFrom [BatchMaxWidth + 1]func(dst, src unsafe.Pointer, m int)
)

// The AVX-512 columnar kernels of each element type, filled in by the
// amd64 init, and the column-major scratch of BatchFlat's AVX-512 path.
var (
`)
	for _, e := range simdElems {
		fmt.Fprintf(b, "\tsimdCols%sKernels [BatchMaxWidth + 1]func(data []%s, m int)\n", e.name, e.goType)
	}
	for _, e := range simdElems {
		fmt.Fprintf(b, "\tbatchScratch%s = sync.Pool{New: func() any { return new([]%s) }}\n", e.name, e.goType)
	}
	b.WriteString(`)

// simdCols runs the width-n AVX-512 columnar kernel on data when its
// element type has one, and reports whether it did.
func simdCols[T cmp.Ordered](data []T, n, m int) bool {
	switch s := any(data).(type) {
`)
	for _, e := range simdElems {
		fmt.Fprintf(b, "\tcase []%s:\n\t\tif k := simdCols%sKernels[n]; k != nil {\n\t\t\tk(s, m)\n\t\t\treturn true\n\t\t}\n", e.goType, e.name)
	}
	b.WriteString(`	}
	return false
}

// simdFlat sorts the m row-major rows of data with the width-wide
// AVX-512 kernel when its element type has one, and reports whether it
// did.
func simdFlat[T cmp.Ordered](data []T, width, m int) bool {
	if batchTransTo[width] == nil {
		return false
	}
	switch s := any(data).(type) {
`)
	for _, e := range simdElems {
		fmt.Fprintf(b, "\tcase []%s:\n\t\tif k := simdCols%sKernels[width]; k != nil {\n\t\t\tsimdTransposed(s, width, m, k, &batchScratch%s)\n\t\t\treturn true\n\t\t}\n", e.goType, e.name, e.name)
	}
	b.WriteString(`	}
	return false
}

// simdTransposed transposes the m rows of data into pooled
// column-major scratch, sorts the columns with k, and transposes them
// back.
func simdTransposed[E `)
	for i, e := range simdElems {
		if i > 0 {
			b.WriteString(" | ")
		}
		b.WriteString(e.goType)
	}
	b.WriteString(`](data []E, width, m int, k func(data []E, m int), pool *sync.Pool) {
	sp := pool.Get().(*[]E)
	s := *sp
	if cap(s) < len(data) {
		s = make([]E, len(data))
	}
	s = s[:len(data)]
	batchTransTo[width](unsafe.Pointer(&s[0]), unsafe.Pointer(&data[0]), m)
	k(s, m)
	batchTransFrom[width](unsafe.Pointer(&data[0]), unsafe.Pointer(&s[0]), m)
	*sp = s
	pool.Put(sp)
}

`)
}
