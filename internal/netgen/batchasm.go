package netgen

// AVX-512 batch kernel emission (ModeBatch, amd64): "batch_amd64.s"
// plus its Go shim "batch_amd64.go".
//
// Every element type here is a 64-bit scalar, so one zmm register
// holds the same column of eight consecutive rows and one comparator
// of the schedule becomes a single min/max register pair (integers:
// VPMINSQ/VPMAXSQ, VPMINUQ/VPMAXUQ) or a compare+two-blends triple
// (float64 — keeps exact bit patterns, so the ±0 multiset survives).
// A virtual register allocator renames the min result instead of
// shuffling values through moves: comparator (a, b) emits
//
//	t  = min(ra, rb)
//	rb = max(ra, rb)   // in place
//	a  now lives in t; ra returns to the free pool
//
// The columnar kernels walk rows eight at a time with a k-masked tail,
// so any m works. The transpose helpers (8x8 qword transpose via
// VPUNPCKL/HQDQ + two VSHUFI64X2 stages; widths 9..16 as two 8-column
// blocks) convert the row-major layout to columns and back, which is
// what makes the SIMD kernels reachable from BatchFlat<Kind>.
//
// Tail masks throughout: K-register masked loads (.Z) never touch
// memory past the slice, masked stores never write lanes beyond the
// live rows, and unloaded registers only ever feed lanes that the
// store masks discard.

import (
	"fmt"
	"strings"
)

// zalloc is the virtual zmm register allocator: lowest free register
// first, deterministically.
type zalloc struct {
	used [32]bool
}

func (z *zalloc) get() int {
	for i := range z.used {
		if !z.used[i] {
			z.used[i] = true
			return i
		}
	}
	panic("netgen: out of zmm registers")
}

func (z *zalloc) put(i int) { z.used[i] = false }

type asmBuf struct {
	b strings.Builder
}

func (a *asmBuf) raw(format string, args ...any) { fmt.Fprintf(&a.b, format, args...) }
func (a *asmBuf) ins(format string, args ...any) { fmt.Fprintf(&a.b, "\t"+format+"\n", args...) }
func (a *asmBuf) label(name string)              { a.b.WriteString(name + ":\n") }
func (a *asmBuf) comment(format string, args ...any) {
	fmt.Fprintf(&a.b, "\t// "+format+"\n", args...)
}

// simdElem is an element type the AVX-512 kernels cover: the only
// per-type code of the generated package.
type simdElem struct {
	name   string // kernel name suffix, as in simdCols<N><name>
	goType string
}

// simdElems lists the element types with AVX-512 kernels, in emission
// order. The generic batch entry points pick them by exact type.
var simdElems = []simdElem{{"Int", "int"}, {"Uint64", "uint64"}, {"Float64", "float64"}}

// simdColsName is the asm symbol of one width's columnar kernel.
func simdColsName(n int, e simdElem) string {
	return fmt.Sprintf("simdCols%d%s", n, e.name)
}

// simdWidths lists the kernel widths that get AVX-512 columnar kernels
// and transpose helpers: every element is a 64-bit scalar, eight lanes
// per zmm register, and the two-block transpose tops out at 16 columns.
func simdWidths(kernels []kernel) []int {
	var out []int
	for _, k := range kernels {
		if k.n <= 16 {
			out = append(out, k.n)
		}
	}
	return out
}

// genBatchAmd64 emits batch_amd64.s and batch_amd64.go for every
// element type in simdElems, covering the widths in simdWidths.
func genBatchAmd64(opts Options, kernels []kernel) (asmSrc, goSrc []byte, err error) {
	widths := simdWidths(kernels)
	var a asmBuf
	a.raw("// Code generated by %q; DO NOT EDIT.\n\n", opts.Command)
	a.raw("#include \"textflag.h\"\n")
	for _, e := range simdElems {
		for _, k := range kernels {
			if k.n > 16 {
				continue
			}
			a.raw("\n")
			emitSIMDColsKernel(&a, e, k)
		}
	}
	for _, n := range widths {
		a.raw("\n")
		emitSIMDTranspose(&a, n, true)
		a.raw("\n")
		emitSIMDTranspose(&a, n, false)
	}
	a.raw("\n")
	emitCPUFuncs(&a)

	goSrc, err = genBatchAmd64Go(opts, widths)
	if err != nil {
		return nil, nil, err
	}
	return []byte(a.b.String()), goSrc, nil
}

// emitSIMDColsKernel emits one columnar AVX-512 kernel: eight rows per
// iteration, whole schedule in registers, k-masked tail.
func emitSIMDColsKernel(a *asmBuf, e simdElem, k kernel) {
	name := simdColsName(k.n, e)
	a.raw("// func %s(base *%s, m int)\n", name, e.goType)
	a.raw("// Column-major batch sort, %d columns of length m at base; depth %d,\n// size %d. Eight rows per iteration; m mod 8 under a k-mask.\n", k.n, k.depth, k.size)
	a.raw("TEXT ·%s(SB), NOSPLIT, $0-16\n", name)
	a.ins("MOVQ base+0(FP), SI")
	a.ins("MOVQ m+8(FP), DI")
	a.ins("MOVQ DI, DX")
	a.ins("SHLQ $3, DX") // column stride in bytes = m*8
	a.ins("XORQ AX, AX") // row index
	a.ins("MOVL $0xFF, R9")
	a.ins("KMOVW R9, K1") // full-width row mask; narrowed for the tail
	a.ins("MOVQ DI, R11")
	a.ins("ANDQ $~7, R11") // full-iteration limit = m &^ 7
	a.raw("\n")
	a.label("loop")
	a.ins("CMPQ AX, R11")
	a.ins("JLT  body")
	a.ins("CMPQ AX, DI")
	a.ins("JGE  done")
	a.comment("tail: rem = m - i in 1..7")
	a.ins("MOVQ DI, R8")
	a.ins("SUBQ AX, R8")
	a.ins("MOVL $1, R9")
	a.ins("MOVQ R8, CX")
	a.ins("SHLL CX, R9")
	a.ins("DECL R9")
	a.ins("KMOVW R9, K1")
	a.raw("\n")
	a.label("body")
	a.ins("LEAQ (SI)(AX*8), R10")

	var z zalloc
	cur := make([]int, k.n)
	for w := 0; w < k.n; w++ {
		cur[w] = z.get()
	}
	a.comment("loads: column w at R10 + w*stride")
	for w := 0; w < k.n; w++ {
		a.ins("VMOVDQU64.Z (R10), K1, Z%d", cur[w])
		if w < k.n-1 {
			a.ins("ADDQ DX, R10")
		}
	}
	for li, lv := range k.levels {
		if len(lv) == 0 {
			continue
		}
		a.raw("\n")
		a.comment("level %d", li+1)
		for _, p := range lv {
			lo, hi := p[0], p[1]
			rl, rh := cur[lo], cur[hi]
			t := z.get()
			switch e.goType {
			case "int":
				a.ins("VPMINSQ Z%d, Z%d, Z%d", rl, rh, t)
				a.ins("VPMAXSQ Z%d, Z%d, Z%d", rl, rh, rh)
			case "uint64":
				a.ins("VPMINUQ Z%d, Z%d, Z%d", rl, rh, t)
				a.ins("VPMAXUQ Z%d, Z%d, Z%d", rl, rh, rh)
			case "float64":
				// k = lo < hi; min = k ? lo : hi; max = k ? hi : lo.
				// Exact bit blends: the ±0 multiset is preserved.
				a.ins("VCMPPD $0x11, Z%d, Z%d, K2", rh, rl)
				a.ins("VBLENDMPD Z%d, Z%d, K2, Z%d", rl, rh, t)
				a.ins("VBLENDMPD Z%d, Z%d, K2, Z%d", rh, rl, rh)
			default:
				panic("netgen: no SIMD kernel for element type " + e.goType)
			}
			z.put(rl)
			cur[lo] = t
		}
	}
	a.raw("\n")
	a.comment("stores, through the output permutation")
	a.ins("LEAQ (SI)(AX*8), R10")
	for w := 0; w < k.n; w++ {
		a.ins("VMOVDQU64 Z%d, K1, (R10)", cur[k.outPerm[w]])
		if w < k.n-1 {
			a.ins("ADDQ DX, R10")
		}
	}
	a.raw("\n")
	a.ins("ADDQ $8, AX")
	a.ins("CMPQ AX, DI")
	a.ins("JLT  loop")
	a.raw("\n")
	a.label("done")
	a.ins("VZEROUPPER")
	a.ins("RET")
}

// emitTranspose8x8 emits the 24-instruction 8x8 qword transpose:
// inputs Z0..Z7 (row r in Z<r>), outputs back in Z0..Z7 (column c in
// Z<c>), Z8..Z23 as scratch.
func emitTranspose8x8(a *asmBuf) {
	for i := 0; i < 4; i++ {
		lo, hi := 2*i, 2*i+1
		a.ins("VPUNPCKLQDQ Z%d, Z%d, Z%d", hi, lo, 8+2*i)
		a.ins("VPUNPCKHQDQ Z%d, Z%d, Z%d", hi, lo, 8+2*i+1)
	}
	a.raw("\n")
	for half := 0; half < 2; half++ {
		t := 8 + 4*half
		o := 16 + 4*half
		a.ins("VSHUFI64X2 $0x88, Z%d, Z%d, Z%d", t+2, t, o)
		a.ins("VSHUFI64X2 $0x88, Z%d, Z%d, Z%d", t+3, t+1, o+1)
		a.ins("VSHUFI64X2 $0xdd, Z%d, Z%d, Z%d", t+2, t, o+2)
		a.ins("VSHUFI64X2 $0xdd, Z%d, Z%d, Z%d", t+3, t+1, o+3)
	}
	a.raw("\n")
	for i := 0; i < 4; i++ {
		a.ins("VSHUFI64X2 $0x88, Z%d, Z%d, Z%d", 20+i, 16+i, i)
	}
	for i := 0; i < 4; i++ {
		a.ins("VSHUFI64X2 $0xdd, Z%d, Z%d, Z%d", 20+i, 16+i, 4+i)
	}
}

// emitSIMDTranspose emits one layout-conversion helper. toCols gathers
// m rows of width n (row-major at src) into n columns of length m
// (column-major at dst); otherwise the inverse. Element type is any
// 64-bit scalar. Widths above 8 go as two 8-column blocks per row
// group.
func emitSIMDTranspose(a *asmBuf, n int, toCols bool) {
	name := fmt.Sprintf("simdTransFrom%d", n)
	if toCols {
		name = fmt.Sprintf("simdTransTo%d", n)
	}
	a.raw("// func %s(dst, src unsafe.Pointer, m int)\n", name)
	if toCols {
		a.raw("// Gathers m width-%d rows (row-major at src) into %d columns of\n// length m (column-major at dst). Eight rows per iteration.\n", n, n)
	} else {
		a.raw("// Scatters %d columns of length m (column-major at src) back into\n// m width-%d rows (row-major at dst). Eight rows per iteration.\n", n, n)
	}
	a.raw("TEXT ·%s(SB), NOSPLIT, $0-24\n", name)
	a.ins("MOVQ dst+0(FP), DI")
	a.ins("MOVQ src+8(FP), SI")
	a.ins("MOVQ m+16(FP), BX")
	a.ins("MOVQ BX, DX")
	a.ins("SHLQ $3, DX") // column stride in bytes = m*8
	if n <= 8 {
		a.ins("MOVL $%#02x, R9", (1<<n)-1)
		a.ins("KMOVW R9, K1") // column-count mask for the row side
	} else {
		a.ins("MOVL $%#02x, R9", (1<<(n-8))-1)
		a.ins("KMOVW R9, K2") // column-count mask of the high block
	}
	a.ins("MOVL $0xFF, R9")
	a.ins("KMOVW R9, K3") // row-count mask; narrowed for the tail
	a.ins("MOVQ $8, R8")  // rows this iteration
	a.ins("XORQ AX, AX")  // row index
	a.ins("MOVQ BX, R11")
	a.ins("ANDQ $~7, R11") // full-iteration limit = m &^ 7
	a.raw("\n")
	a.label("loop")
	a.ins("CMPQ AX, R11")
	a.ins("JLT  body")
	a.ins("CMPQ AX, BX")
	a.ins("JGE  done")
	a.comment("tail: rem = m - i in 1..7")
	a.ins("MOVQ BX, R8")
	a.ins("SUBQ AX, R8")
	a.ins("MOVL $1, R9")
	a.ins("MOVQ R8, CX")
	a.ins("SHLL CX, R9")
	a.ins("DECL R9")
	a.ins("KMOVW R9, K3")
	a.raw("\n")
	a.label("body")

	// rowPtr positions R10 at row AX (plus byte offset) of the
	// row-major side.
	base := "SI"
	colBase := "DI"
	if !toCols {
		base, colBase = "DI", "SI"
	}
	rowPtr := func(off int) {
		a.ins("IMUL3Q $%d, AX, R10", n*8)
		a.ins("ADDQ %s, R10", base)
		if off != 0 {
			a.ins("ADDQ $%d, R10", off)
		}
	}
	// loadRows loads up to R8 rows at byte offset off into Z0..Z7 under
	// lane mask (empty = full); rows past R8 keep stale registers whose
	// lanes the store side masks away.
	loadRows := func(off int, mask, skipTo string) {
		rowPtr(off)
		for r := 0; r < 8; r++ {
			if r > 0 {
				a.ins("CMPQ R8, $%d", r)
				a.ins("JLE  %s", skipTo)
				a.ins("ADDQ $%d, R10", n*8)
			}
			if mask == "" {
				a.ins("VMOVDQU64 (R10), Z%d", r)
			} else {
				a.ins("VMOVDQU64.Z (R10), %s, Z%d", mask, r)
			}
		}
	}
	// storeRows stores Z0..Z7 back to up to R8 rows at byte offset off.
	storeRows := func(off int, mask, skipTo string) {
		rowPtr(off)
		for r := 0; r < 8; r++ {
			if r > 0 {
				a.ins("CMPQ R8, $%d", r)
				a.ins("JLE  %s", skipTo)
				a.ins("ADDQ $%d, R10", n*8)
			}
			if mask == "" {
				a.ins("VMOVDQU64 Z%d, (R10)", r)
			} else {
				a.ins("VMOVDQU64 Z%d, %s, (R10)", r, mask)
			}
		}
	}
	// colChunk walks columns first..last of the column-major side at
	// row offset AX, loading into or storing from Z0..Z7; advance keeps
	// stepping R10 past the last column.
	colChunk := func(first, last int, load, advance bool) {
		if first == 0 {
			a.ins("LEAQ (%s)(AX*8), R10", colBase)
		} else {
			a.ins("MOVQ R12, R10")
		}
		for w := first; w <= last; w++ {
			if load {
				a.ins("VMOVDQU64.Z (R10), K3, Z%d", w-first)
			} else {
				a.ins("VMOVDQU64 Z%d, K3, (R10)", w-first)
			}
			if w < last || advance {
				a.ins("ADDQ DX, R10")
			}
		}
		if advance {
			a.ins("MOVQ R10, R12")
		}
	}

	if toCols {
		if n <= 8 {
			a.comment("load up to 8 width-%d rows", n)
			loadRows(0, "K1", "trans")
			a.raw("\n")
			a.label("trans")
			emitTranspose8x8(a)
			a.raw("\n")
			a.comment("store %d columns", n)
			colChunk(0, n-1, false, false)
		} else {
			a.comment("low block: row qwords 0..7 -> columns 0..7")
			loadRows(0, "", "translo")
			a.raw("\n")
			a.label("translo")
			emitTranspose8x8(a)
			a.raw("\n")
			colChunk(0, 7, false, true)
			a.raw("\n")
			a.comment("high block: row qwords 8..%d -> columns 8..%d", n-1, n-1)
			loadRows(64, "K2", "transhi")
			a.raw("\n")
			a.label("transhi")
			emitTranspose8x8(a)
			a.raw("\n")
			colChunk(8, n-1, false, false)
		}
	} else {
		if n <= 8 {
			a.comment("load %d columns", n)
			colChunk(0, n-1, true, false)
			a.raw("\n")
			emitTranspose8x8(a)
			a.raw("\n")
			a.comment("store up to 8 width-%d rows", n)
			storeRows(0, "K1", "next")
		} else {
			a.comment("low block: columns 0..7 -> row qwords 0..7")
			colChunk(0, 7, true, true)
			a.raw("\n")
			emitTranspose8x8(a)
			a.raw("\n")
			storeRows(0, "", "hi")
			a.raw("\n")
			a.label("hi")
			a.comment("high block: columns 8..%d -> row qwords 8..%d", n-1, n-1)
			colChunk(8, n-1, true, false)
			a.raw("\n")
			emitTranspose8x8(a)
			a.raw("\n")
			storeRows(64, "K2", "next")
		}
		a.raw("\n")
		a.label("next")
	}
	a.raw("\n")
	a.ins("ADDQ $8, AX")
	a.ins("CMPQ AX, BX")
	a.ins("JLT  loop")
	a.raw("\n")
	a.label("done")
	a.ins("VZEROUPPER")
	a.ins("RET")
}

// emitCPUFuncs emits the two feature-detection primitives.
func emitCPUFuncs(a *asmBuf) {
	a.raw(`// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
`)
}

// genBatchAmd64Go emits batch_amd64.go: the //go:noescape declarations
// matching the asm, typed wrappers, CPU feature detection, and the
// init that plugs everything into the dispatch tables.
func genBatchAmd64Go(opts Options, widths []int) ([]byte, error) {
	var b strings.Builder
	header(opts, &b)
	b.WriteString("// AVX-512 hooks of the batch kernels: feature detection and the\n// typed shims that init plugs into the dispatch tables of batch.go.\n")
	fmt.Fprintf(&b, "package %s\n\n", opts.Package)
	b.WriteString("import \"unsafe\"\n\n")

	for _, e := range simdElems {
		for _, n := range widths {
			fmt.Fprintf(&b, "//go:noescape\nfunc %s(base *%s, m int)\n\n", simdColsName(n, e), e.goType)
		}
	}
	for _, n := range widths {
		fmt.Fprintf(&b, "//go:noescape\nfunc simdTransTo%d(dst, src unsafe.Pointer, m int)\n\n", n)
		fmt.Fprintf(&b, "//go:noescape\nfunc simdTransFrom%d(dst, src unsafe.Pointer, m int)\n\n", n)
	}
	b.WriteString("func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)\n\nfunc xgetbv0() (eax, edx uint32)\n\n")

	for _, e := range simdElems {
		for _, n := range widths {
			fmt.Fprintf(&b, "func simdBatchCols%d%s(data []%s, m int) { %s(&data[0], m) }\n\n", n, e.name, e.goType, simdColsName(n, e))
		}
	}

	b.WriteString(`// batchDetectAVX512 reports whether the CPU and OS support the
// AVX-512 batch kernels: AVX512F plus OS-managed xmm/ymm/opmask/zmm
// state (XCR0 bits 1, 2, 5, 6, 7 via XGETBV, gated on OSXSAVE).
func batchDetectAVX512() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	if c&osxsave == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	const need = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xcr0&need != need {
		return false
	}
	_, ebx, _, _ := cpuidex(7, 0)
	const avx512f = 1 << 16
	return ebx&avx512f != 0
}

func init() {
	if !batchDetectAVX512() {
		return
	}
	batchSIMDAvail = true
	batchSIMDOn = true
`)
	for _, e := range simdElems {
		for _, n := range widths {
			fmt.Fprintf(&b, "\tsimdCols%sKernels[%d] = simdBatchCols%d%s\n", e.name, n, n, e.name)
		}
	}
	for _, n := range widths {
		fmt.Fprintf(&b, "\tbatchTransTo[%d] = simdTransTo%d\n", n, n)
		fmt.Fprintf(&b, "\tbatchTransFrom[%d] = simdTransFrom%d\n", n, n)
	}
	b.WriteString("}\n")
	return gofmt(b.String(), "batch_amd64.go")
}
