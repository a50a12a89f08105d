package shufflenet_test

// Benchmarks for the generated sorting kernels (PR 6): the committed
// sortkernels package against slices.Sort and against interpreting the
// same depth-optimal network through Program.EvalInto, plus the
// end-to-end shufflenet.Sort dispatcher across the kernel range and
// into the fallback. BenchmarkGeneratedSort* and BenchmarkSortDispatch*
// are guarded in cmd/benchjson -diff (see Makefile BENCH_GUARDED).
//
// Methodology: each iteration copies one of a batch of pre-generated
// random slices into a scratch buffer and sorts it, so every op sorts
// genuinely unsorted data; the copy cost is identical across the
// compared implementations.

import (
	"cmp"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"shufflenet"
	"shufflenet/internal/netbuild"
	"shufflenet/sortkernels"
)

const sortBatch = 256

func benchSort[T any](b *testing.B, n int, fill func(*rand.Rand) T, f func([]T)) {
	rng := rand.New(rand.NewSource(42))
	src := make([]T, sortBatch*n)
	for i := range src {
		src[i] = fill(rng)
	}
	buf := make([]T, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := (i % sortBatch) * n
		copy(buf, src[j:j+n])
		f(buf)
	}
}

var sortWidths = []int{2, 3, 4, 6, 8, 10, 12, 14, 16}

// BenchmarkGeneratedSort: the generated generic kernels against
// slices.Sort and against interpreting the identical network via
// Program.EvalInto, on random []int across the kernel widths; uint64
// and float64 at the spot widths 8 and 16. The /baseline variant copies
// without sorting — at small widths the harness copy dominates raw
// ns/op, so the honest per-sort cost (and the ratio recorded in
// EXPERIMENTS.md) is net of it. The kernel lookup is hoisted out of the
// loop via kernelOf, as a width-aware hot caller would write it;
// per-call dispatch cost is BenchmarkSortDispatch's subject.
func BenchmarkGeneratedSort(b *testing.B) {
	intf := func(rng *rand.Rand) int { return int(rng.Int63()) }
	for _, n := range sortWidths {
		prog := netbuild.DepthOptimal(n).Compile()
		b.Run("int-n"+strconv.Itoa(n)+"/baseline", func(b *testing.B) {
			benchSort(b, n, intf, func(s []int) {})
		})
		b.Run("int-n"+strconv.Itoa(n)+"/kernel", func(b *testing.B) {
			benchSort(b, n, intf, kernelOf[int](n))
		})
		b.Run("int-n"+strconv.Itoa(n)+"/stdlib", func(b *testing.B) {
			benchSort(b, n, intf, slices.Sort[[]int])
		})
		b.Run("int-n"+strconv.Itoa(n)+"/interp", func(b *testing.B) {
			benchSort(b, n, intf, func(s []int) { prog.EvalInto(s, s) })
		})
	}
	for _, n := range []int{8, 16} {
		b.Run("uint64-n"+strconv.Itoa(n)+"/kernel", func(b *testing.B) {
			benchSort(b, n, (*rand.Rand).Uint64, kernelOf[uint64](n))
		})
		b.Run("uint64-n"+strconv.Itoa(n)+"/stdlib", func(b *testing.B) {
			benchSort(b, n, (*rand.Rand).Uint64, slices.Sort[[]uint64])
		})
		b.Run("float64-n"+strconv.Itoa(n)+"/kernel", func(b *testing.B) {
			benchSort(b, n, (*rand.Rand).Float64, kernelOf[float64](n))
		})
		b.Run("float64-n"+strconv.Itoa(n)+"/stdlib", func(b *testing.B) {
			benchSort(b, n, (*rand.Rand).Float64, slices.Sort[[]float64])
		})
	}
}

// kernelOf returns the generic width-n kernel at element type T.
func kernelOf[T cmp.Ordered](n int) func([]T) {
	return [...]func([]T){
		2: sortkernels.Sort2Ordered[T], 3: sortkernels.Sort3Ordered[T],
		4: sortkernels.Sort4Ordered[T], 5: sortkernels.Sort5Ordered[T],
		6: sortkernels.Sort6Ordered[T], 7: sortkernels.Sort7Ordered[T],
		8: sortkernels.Sort8Ordered[T], 9: sortkernels.Sort9Ordered[T],
		10: sortkernels.Sort10Ordered[T], 11: sortkernels.Sort11Ordered[T],
		12: sortkernels.Sort12Ordered[T], 13: sortkernels.Sort13Ordered[T],
		14: sortkernels.Sort14Ordered[T], 15: sortkernels.Sort15Ordered[T],
		16: sortkernels.Sort16Ordered[T],
	}[n]
}

// BenchmarkSortDispatch: the public shufflenet.Sort entry point —
// kernel dispatch overhead included — against slices.Sort, through the
// kernel range (8, 16) and past it into the fallback (24, 32, 64),
// plus []string (the abbreviated-key path) at width 8, and at widths 8
// and 16 on strings that share their first 8 bytes, so every key
// prefix in a row ties. The func legs time SortFunc against
// slices.SortFunc on a 16-byte struct ordered by its first field.
func BenchmarkSortDispatch(b *testing.B) {
	intf := func(rng *rand.Rand) int { return int(rng.Int63()) }
	for _, n := range []int{8, 16, 24, 32, 64} {
		b.Run("int-n"+strconv.Itoa(n)+"/sort", func(b *testing.B) {
			benchSort(b, n, intf, shufflenet.Sort[int])
		})
		b.Run("int-n"+strconv.Itoa(n)+"/stdlib", func(b *testing.B) {
			benchSort(b, n, intf, slices.Sort[[]int])
		})
	}
	b.Run("string-n8/sort", func(b *testing.B) {
		benchSort(b, 8, benchString, shufflenet.Sort[string])
	})
	b.Run("string-n8/stdlib", func(b *testing.B) {
		benchSort(b, 8, benchString, slices.Sort[[]string])
	})
	for _, n := range []int{8, 16} {
		b.Run("string-prefix-n"+strconv.Itoa(n)+"/sort", func(b *testing.B) {
			benchSort(b, n, benchPrefixString, shufflenet.Sort[string])
		})
		b.Run("string-prefix-n"+strconv.Itoa(n)+"/stdlib", func(b *testing.B) {
			benchSort(b, n, benchPrefixString, slices.Sort[[]string])
		})
	}
	for _, n := range []int{8, 16} {
		b.Run("func-n"+strconv.Itoa(n)+"/sort", func(b *testing.B) {
			benchSort(b, n, benchKeyed, func(s []keyed) {
				shufflenet.SortFunc(s, func(a, b keyed) bool { return a.key < b.key })
			})
		})
		b.Run("func-n"+strconv.Itoa(n)+"/stdlib", func(b *testing.B) {
			benchSort(b, n, benchKeyed, func(s []keyed) {
				slices.SortFunc(s, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
			})
		})
	}
}

// keyed is the func legs' element: a key and a payload.
type keyed struct {
	key     uint64
	payload int
}

func benchKeyed(rng *rand.Rand) keyed {
	k := rng.Uint64()
	return keyed{k, int(k >> 33)}
}

// benchString draws a random lowercase string of 4..15 bytes.
func benchString(rng *rand.Rand) string {
	b := make([]byte, 4+rng.Intn(12))
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// benchPrefixString draws "https://" followed by a benchString, as in
// a list of URLs: the first 8 bytes always tie.
func benchPrefixString(rng *rand.Rand) string {
	return "https://" + benchString(rng)
}

// BenchmarkProgramEvalScratch proves the allocation-free Program
// evaluation path: EvalInto with a caller-owned scratch buffer must
// report 0 allocs/op (Eval, by contrast, allocates its result).
func BenchmarkProgramEvalScratch(b *testing.B) {
	prog := netbuild.DepthOptimal(16).Compile()
	rng := rand.New(rand.NewSource(42))
	in := make([]int, 16)
	for i := range in {
		in[i] = rng.Int()
	}
	out := make([]int, 16)
	b.Run("evalinto", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prog.EvalInto(out, in)
		}
	})
	b.Run("eval", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = prog.Eval(in)
		}
	})
}

// The scratch path's zero-allocation property is load-bearing (the
// scalar 0-1 oracle and the dispatcher fallback rely on it), so it is
// asserted as a test too, not just visible in benchmark output.
func TestEvalIntoZeroAllocs(t *testing.T) {
	prog := netbuild.DepthOptimal(16).Compile()
	in := make([]int, 16)
	out := make([]int, 16)
	for i := range in {
		in[i] = 16 - i
	}
	if allocs := testing.AllocsPerRun(100, func() { prog.EvalInto(out, in) }); allocs != 0 {
		t.Errorf("EvalInto: %v allocs/op, want 0", allocs)
	}
}
