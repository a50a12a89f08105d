// Package netgen compiles network.Program values into standalone,
// branchless Go sorting kernels: one function per width and kernel
// family, generic over the element type, with the compare-exchanges
// grouped by level so that independent swaps sit adjacent for
// instruction-level parallelism.
//
// The emitted package has no dependency on this repository — it is the
// product surface of the lab: the Program IR, which PR 1 introduced as
// an evaluation engine, doubles here as a compiler backend. Emission
// is deterministic (same programs, same options, same bytes), which is
// what makes the committed sortkernels/ package a drift-gated build
// artifact (`make netgen-check`).
package netgen

import (
	"fmt"
	"go/format"
	"sort"
	"strings"

	"shufflenet/internal/network"
)

// Kind selects an emitted kernel family: how the kernels compare.
type Kind int

const (
	// KindOrdered emits generic func SortNOrdered[T cmp.Ordered](s []T)
	// kernels, comparing with <.
	KindOrdered Kind = iota
	// KindFunc emits generic func SortNFunc[T any](s []T, less
	// func(T, T) bool) kernels.
	KindFunc
)

// AllKinds lists every kernel family, in emission order.
var AllKinds = []Kind{KindOrdered, KindFunc}

func (k Kind) String() string {
	switch k {
	case KindOrdered:
		return "Ordered"
	case KindFunc:
		return "Func"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// file returns the generated file that holds this family's kernels.
func (k Kind) file() string {
	return "kernels_" + strings.ToLower(k.String()) + ".go"
}

// Mode selects an emission mode of the generated package.
type Mode int

const (
	// ModeScalar emits the per-slice Sort<N><Kind> kernels plus the
	// "<package>.go" meta file (dispatchers, schedules as data).
	ModeScalar Mode = iota
	// ModeBatch emits the batch kernels that sort many same-width
	// slices per call: generic pure-Go columnar and row-major kernels
	// of the Ordered family ("batch_ordered.go"), the batch dispatch
	// surface ("batch.go"), and — for widths up to 16 — AVX-512
	// columnar kernels for int, uint64 and float64 with
	// layout-transpose helpers ("batch_amd64.s", "batch_amd64.go").
	ModeBatch
)

// AllModes lists every emission mode, in emission order.
var AllModes = []Mode{ModeScalar, ModeBatch}

func (m Mode) String() string {
	switch m {
	case ModeScalar:
		return "scalar"
	case ModeBatch:
		return "batch"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Options configures Generate.
type Options struct {
	// Package is the name of the generated package.
	Package string
	// Command is the regeneration command recorded in the
	// "Code generated by" header of every emitted file. It must not
	// contain machine-specific paths, or regeneration stops being
	// byte-identical across checkouts.
	Command string
	// Kinds selects the kernel families to emit; nil means AllKinds.
	Kinds []Kind
	// Modes selects the emission modes; nil means scalar only, which
	// keeps pre-batch configurations byte-identical.
	Modes []Mode
	// Doc is the package documentation appended to the generated
	// package clause, one line per element ("// " prefixes added).
	// A default is used when nil.
	Doc []string
	// Provenance maps a width to a short note on where its network
	// comes from (e.g. "depth-optimal (Bundala–Závodný bound)"); it is
	// quoted in the kernel doc comments.
	Provenance map[int]string
}

// kernel is one width's program plus everything precomputed for
// emission.
type kernel struct {
	n       int
	levels  [][][2]int
	outPerm []int // out[i] = v[outPerm[i]]
	size    int
	depth   int
	note    string
}

// Generate compiles the programs (one per distinct width, each on at
// least 2 wires) into a generated package: a map of file name to
// gofmt-formatted contents. Alongside the per-family kernel files it
// emits "<package>.go" with the package documentation, the runtime
// dispatchers, and the comparator schedules as data (Levels,
// OutputPerm, Depth, Size, Widths) so that tests can re-verify every
// committed kernel exhaustively.
func Generate(opts Options, progs []*network.Program) (map[string][]byte, error) {
	if opts.Package == "" {
		return nil, fmt.Errorf("netgen: empty package name")
	}
	kinds := opts.Kinds
	if kinds == nil {
		kinds = AllKinds
	}
	if len(progs) == 0 {
		return nil, fmt.Errorf("netgen: no programs")
	}
	kernels := make([]kernel, 0, len(progs))
	seen := map[int]bool{}
	for _, p := range progs {
		n := p.Wires()
		if n < 2 {
			return nil, fmt.Errorf("netgen: program on %d wires (want >= 2)", n)
		}
		if n > 64 {
			return nil, fmt.Errorf("netgen: program on %d wires (want <= 64: kernels hold every element in a local)", n)
		}
		if seen[n] {
			return nil, fmt.Errorf("netgen: two programs of width %d", n)
		}
		seen[n] = true
		kernels = append(kernels, kernel{
			n:       n,
			levels:  p.Levels(),
			outPerm: p.OutputPerm(),
			size:    p.Size(),
			depth:   p.Depth(),
			note:    opts.Provenance[n],
		})
	}
	sort.Slice(kernels, func(i, j int) bool { return kernels[i].n < kernels[j].n })

	modes := opts.Modes
	if modes == nil {
		modes = []Mode{ModeScalar}
	}
	files := make(map[string][]byte, len(kinds)+1)
	seenMode := map[Mode]bool{}
	for _, mode := range modes {
		if seenMode[mode] {
			return nil, fmt.Errorf("netgen: mode %v listed twice", mode)
		}
		seenMode[mode] = true
		switch mode {
		case ModeScalar:
			for _, k := range kinds {
				src, err := genKindFile(opts, k, kernels)
				if err != nil {
					return nil, err
				}
				files[k.file()] = src
			}
			src, err := genMetaFile(opts, kinds, kernels)
			if err != nil {
				return nil, err
			}
			files[opts.Package+".go"] = src
		case ModeBatch:
			if opts.Package == "batch" {
				return nil, fmt.Errorf("netgen: batch mode cannot target a package named %q (meta file collision)", opts.Package)
			}
			if !hasKind(kinds, KindOrdered) {
				return nil, fmt.Errorf("netgen: batch mode needs the Ordered family")
			}
			src, err := genBatchKernelFile(opts, kernels)
			if err != nil {
				return nil, err
			}
			files[batchFile] = src
			if src, err = genBatchMetaFile(opts, kernels); err != nil {
				return nil, err
			}
			files["batch.go"] = src
			if len(simdWidths(kernels)) > 0 {
				asmSrc, goSrc, err := genBatchAmd64(opts, kernels)
				if err != nil {
					return nil, err
				}
				files["batch_amd64.s"] = asmSrc
				files["batch_amd64.go"] = goSrc
			}
		default:
			return nil, fmt.Errorf("netgen: unknown mode %v", mode)
		}
	}
	return files, nil
}

func hasKind(kinds []Kind, want Kind) bool {
	for _, k := range kinds {
		if k == want {
			return true
		}
	}
	return false
}

func header(opts Options, b *strings.Builder) {
	fmt.Fprintf(b, "// Code generated by %q; DO NOT EDIT.\n\n", opts.Command)
}

// genKindFile emits every kernel of one family.
func genKindFile(opts Options, kind Kind, kernels []kernel) ([]byte, error) {
	var b strings.Builder
	header(opts, &b)
	fmt.Fprintf(&b, "package %s\n\n", opts.Package)
	if kind == KindOrdered {
		b.WriteString("import \"cmp\"\n\n")
	}
	for i, k := range kernels {
		if i > 0 {
			b.WriteString("\n")
		}
		genKernel(&b, kind, k)
	}
	return gofmt(b.String(), kind.file())
}

// genKernel emits one branchless sorting function.
//
// The body loads every element into a local, applies the
// compare-exchange schedule level by level (blank lines separate
// levels: the exchanges within one level touch disjoint locals, so
// they are free to issue in parallel), and stores the locals back —
// through the output permutation when the source program has one
// (register-model networks).
//
// Both families exchange with a compare-and-swap `if`: one comparison
// per exchange, and the input multiset survives every input, NaN
// included (builtin min/max would turn one NaN into two). At integer
// element types the compiler lowers the `if` to conditional moves, so
// the kernel has no data-dependent branches; at float64 it branches.
func genKernel(b *strings.Builder, kind Kind, k kernel) {
	name := fmt.Sprintf("Sort%d%s", k.n, kind)
	doc := fmt.Sprintf("// %s sorts s[:%d] in place with a sorting-network kernel:\n// depth %d, size %d", name, k.n, k.depth, k.size)
	if k.note != "" {
		doc += ", " + k.note
	}
	doc += "."
	switch kind {
	case KindOrdered:
		doc += "\n// Ordering follows <, so inputs containing NaN come out in\n// unspecified order (the input multiset is always preserved)."
	case KindFunc:
		doc += "\n// less must be a strict weak ordering; the sort is not stable."
	}
	b.WriteString(doc + "\n")
	switch kind {
	case KindOrdered:
		fmt.Fprintf(b, "func %s[T cmp.Ordered](s []T) {\n", name)
	case KindFunc:
		fmt.Fprintf(b, "func %s[T any](s []T, less func(a, b T) bool) {\n", name)
	}
	fmt.Fprintf(b, "\t_ = s[%d]\n", k.n-1)
	// load
	b.WriteString("\t")
	for i := 0; i < k.n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "v%d", i)
	}
	b.WriteString(" := ")
	for i := 0; i < k.n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "s[%d]", i)
	}
	b.WriteString("\n")
	// levels
	for li, lv := range k.levels {
		if len(lv) == 0 {
			continue
		}
		fmt.Fprintf(b, "\n\t// level %d\n", li+1)
		for _, p := range lv {
			lo, hi := p[0], p[1]
			switch kind {
			case KindOrdered:
				fmt.Fprintf(b, "\tif v%d < v%d {\n\t\tv%d, v%d = v%d, v%d\n\t}\n", hi, lo, lo, hi, hi, lo)
			case KindFunc:
				fmt.Fprintf(b, "\tif less(v%d, v%d) {\n\t\tv%d, v%d = v%d, v%d\n\t}\n", hi, lo, lo, hi, hi, lo)
			}
		}
	}
	// store
	b.WriteString("\n\t")
	for i := 0; i < k.n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "s[%d]", i)
	}
	b.WriteString(" = ")
	for i := 0; i < k.n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "v%d", k.outPerm[i])
	}
	b.WriteString("\n}\n")
}

// genMetaFile emits "<package>.go": package doc, dispatchers, and the
// comparator schedules as data.
func genMetaFile(opts Options, kinds []Kind, kernels []kernel) ([]byte, error) {
	var b strings.Builder
	header(opts, &b)
	doc := opts.Doc
	if doc == nil {
		doc = []string{
			fmt.Sprintf("Package %s holds generated branchless sorting-network kernels.", opts.Package),
		}
	}
	for _, line := range doc {
		if line == "" {
			b.WriteString("//\n")
		} else {
			b.WriteString("// " + line + "\n")
		}
	}
	fmt.Fprintf(&b, "package %s\n\n", opts.Package)
	if hasKind(kinds, KindOrdered) {
		b.WriteString("import \"cmp\"\n\n")
	}
	minW, maxW := kernels[0].n, kernels[len(kernels)-1].n
	fmt.Fprintf(&b, "// Kernel widths span [MinWidth, MaxWidth]; Widths lists the ones\n// actually present.\nconst (\n\tMinWidth = %d\n\tMaxWidth = %d\n)\n\n", minW, maxW)
	// Widths
	b.WriteString("// Widths returns the kernel widths available, ascending.\nfunc Widths() []int {\n\treturn []int{")
	for i, k := range kernels {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", k.n)
	}
	b.WriteString("}\n}\n\n")

	// Dispatchers: a switch on the width calls each kernel directly,
	// so a caller's stack array passed as s stays on the stack.
	for _, kind := range kinds {
		switch kind {
		case KindOrdered:
			b.WriteString("// Ordered sorts s in place with the generated generic kernel\n// matching len(s) and reports whether one was available; slices\n// shorter than 2 are trivially sorted. When it returns false, s is\n// untouched. Inputs containing NaN come out in unspecified order.\nfunc Ordered[T cmp.Ordered](s []T) bool {\n\tswitch len(s) {\n\tcase 0, 1:\n")
			for _, k := range kernels {
				fmt.Fprintf(&b, "\tcase %d:\n\t\tSort%dOrdered(s)\n", k.n, k.n)
			}
		case KindFunc:
			b.WriteString("// Func sorts s in place by less with the generated generic kernel\n// matching len(s) and reports whether one was available; slices\n// shorter than 2 are trivially sorted. When it returns false, s is\n// untouched. The sort is not stable.\nfunc Func[T any](s []T, less func(a, b T) bool) bool {\n\tswitch len(s) {\n\tcase 0, 1:\n")
			for _, k := range kernels {
				fmt.Fprintf(&b, "\tcase %d:\n\t\tSort%dFunc(s, less)\n", k.n, k.n)
			}
		}
		b.WriteString("\tdefault:\n\t\treturn false\n\t}\n\treturn true\n}\n\n")
	}

	// schedules as data
	b.WriteString("// levels holds the compare-exchange schedule of every kernel, level\n// by level, as (min, max) wire pairs — the source of truth the tests\n// verify exhaustively against the 0-1 principle.\nvar levels = map[int][][][2]int{\n")
	for _, k := range kernels {
		fmt.Fprintf(&b, "\t%d: {\n", k.n)
		for _, lv := range k.levels {
			b.WriteString("\t\t{")
			for i, p := range lv {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "{%d, %d}", p[0], p[1])
			}
			b.WriteString("},\n")
		}
		b.WriteString("\t},\n")
	}
	b.WriteString("}\n\n")

	// output permutations (only non-identity ones are stored)
	b.WriteString("// outputPerms holds the output relabelings of kernels compiled from\n// register-model networks; widths not present use the identity.\nvar outputPerms = map[int][]int{\n")
	for _, k := range kernels {
		if isIdentity(k.outPerm) {
			continue
		}
		fmt.Fprintf(&b, "\t%d: {", k.n)
		for i, v := range k.outPerm {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d", v)
		}
		b.WriteString("},\n")
	}
	b.WriteString("}\n\n")

	b.WriteString(`// Levels returns a copy of the width-n kernel's compare-exchange
// schedule (nil if no kernel of that width exists).
func Levels(n int) [][][2]int {
	src, ok := levels[n]
	if !ok {
		return nil
	}
	out := make([][][2]int, len(src))
	for i, lv := range src {
		out[i] = append([][2]int(nil), lv...)
	}
	return out
}

// OutputPerm returns the output relabeling g of the width-n kernel
// (out[i] = v[g[i]] after the exchanges); the identity unless the
// kernel was compiled from a register-model network.
func OutputPerm(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	if p, ok := outputPerms[n]; ok {
		copy(g, p)
	}
	return g
}

// Depth returns the level count of the width-n kernel (0 if none).
func Depth(n int) int {
	return len(levels[n])
}

// Size returns the compare-exchange count of the width-n kernel
// (0 if none).
func Size(n int) int {
	total := 0
	for _, lv := range levels[n] {
		total += len(lv)
	}
	return total
}
`)
	return gofmt(b.String(), opts.Package+".go")
}

func isIdentity(p []int) bool {
	for i, v := range p {
		if i != v {
			return false
		}
	}
	return true
}

func gofmt(src, file string) ([]byte, error) {
	out, err := format.Source([]byte(src))
	if err != nil {
		return nil, fmt.Errorf("netgen: generated %s does not format: %v\n%s", file, err, src)
	}
	return out, nil
}
