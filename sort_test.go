package shufflenet_test

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"shufflenet"
	"shufflenet/internal/network"
	"shufflenet/sortkernels"
)

// Named element types: the generic kernels serve them like their
// underlying types.
type (
	namedInt    int
	namedString string
	namedFloat  float64
)

// Sort must agree with slices.Sort on every element kind the generic
// kernels serve, named types included, across every width from the
// trivial cases through the kernel range and into the fallback.
func TestSortMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 2*sortkernels.MaxWidth; n++ {
		for trial := 0; trial < 50; trial++ {
			ints := make([]int, n)
			for i := range ints {
				ints[i] = rng.Intn(8) - 4 // dense duplicates
			}
			us := make([]uint64, n)
			fs := make([]float64, n)
			ss := make([]string, n)
			for i := range us {
				us[i] = rng.Uint64()
				fs[i] = rng.NormFloat64()
				ss[i] = strings.Repeat("ab", rng.Intn(3)) + string(rune('a'+rng.Intn(26)))
			}
			checkSort(t, ints)
			checkSort(t, us)
			checkSort(t, fs)
			checkSort(t, ss)
			checkKinds(t, us, ss)
		}
	}
}

// checkKinds runs checkSort on the values of us converted to int8,
// int32, uint16, uintptr, float32 and a named int type, and on ss as a
// named string type.
func checkKinds(t *testing.T, us []uint64, ss []string) {
	t.Helper()
	checkSort(t, convert[int8](us))
	checkSort(t, convert[int32](us))
	checkSort(t, convert[uint16](us))
	checkSort(t, convert[uintptr](us))
	checkSort(t, convert[namedInt](us))
	f32 := make([]float32, 0, len(us))
	for _, u := range us {
		if f := math.Float32frombits(uint32(u)); !math.IsNaN(float64(f)) {
			f32 = append(f32, f)
		}
	}
	checkSort(t, f32)
	named := make([]namedString, len(ss))
	for i, v := range ss {
		named[i] = namedString(v)
	}
	checkSort(t, named)
}

// convert truncates each u to the integer type T.
func convert[T ~int8 | ~int32 | ~uint16 | ~uintptr | ~int](us []uint64) []T {
	out := make([]T, len(us))
	for i, u := range us {
		out[i] = T(u)
	}
	return out
}

func checkSort[T cmp.Ordered](t *testing.T, in []T) {
	t.Helper()
	got := slices.Clone(in)
	want := slices.Clone(in)
	shufflenet.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("Sort(%v) = %v, want %v", in, got, want)
	}
}

// Sort on every float kind must match slices.Sort even with NaNs in
// the input: the fast path detects them and delegates, so NaNs come out
// first and the rest sorted.
func TestSortFloat64NaNMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	nan := math.NaN()
	for n := 2; n <= sortkernels.MaxWidth; n++ {
		for trial := 0; trial < 50; trial++ {
			in := make([]float64, n)
			for i := range in {
				if rng.Intn(3) == 0 {
					in[i] = nan
				} else {
					in[i] = float64(rng.Intn(5))
				}
			}
			checkNaNSort(t, in)
			f32 := make([]float32, n)
			named := make([]namedFloat, n)
			for i, v := range in {
				f32[i], named[i] = float32(v), namedFloat(v)
			}
			checkNaNSort(t, f32)
			checkNaNSort(t, named)
		}
	}
}

// checkNaNSort checks Sort against slices.Sort's NaN placement: every
// NaN first, then the rest ascending.
func checkNaNSort[T ~float32 | ~float64](t *testing.T, in []T) {
	t.Helper()
	nans := 0
	for _, v := range in {
		if v != v {
			nans++
		}
	}
	got := slices.Clone(in)
	shufflenet.Sort(got)
	gotNaNs := 0
	for _, v := range got {
		if v != v {
			gotNaNs++
		}
	}
	if gotNaNs != nans {
		t.Fatalf("Sort(%v) = %v: %d NaNs in, %d out", in, got, nans, gotNaNs)
	}
	if !slices.IsSorted(got[nans:]) {
		t.Fatalf("Sort(%v) = %v: non-NaN tail unsorted", in, got)
	}
	for _, v := range got[:nans] {
		if v == v {
			t.Fatalf("Sort(%v) = %v: NaNs not placed first", in, got)
		}
	}
}

// SortFunc must sort by less, and below the fallback run the network
// alone: one less call per comparator, sortkernels.Size(n) in all.
func TestSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 2*sortkernels.MaxWidth; n++ {
		in := make([]int, n)
		for i := range in {
			in[i] = rng.Intn(10)
		}
		got := slices.Clone(in)
		calls := 0
		shufflenet.SortFunc(got, func(a, b int) bool { calls++; return a > b }) // descending
		want := slices.Clone(in)
		slices.Sort(want)
		slices.Reverse(want)
		if !slices.Equal(got, want) {
			t.Fatalf("SortFunc(%v, >) = %v, want %v", in, got, want)
		}
		if n >= 2 && n <= sortkernels.MaxWidth && calls != sortkernels.Size(n) {
			t.Fatalf("SortFunc on %d elements called less %d times, want the network's %d", n, calls, sortkernels.Size(n))
		}
	}
}

// Every committed kernel width is verified two ways, both exhaustive:
// the schedule data the kernels were generated from is rebuilt into a
// Program and checked over all 2^n 0-1 inputs on the bit-sliced (SWAR)
// kernel, and the compiled generic kernel itself is executed on all 2^n
// 0-1 inputs at int and at int8 (the 0-1 principle then covers
// arbitrary ordered inputs, since the kernel is a fixed comparator
// schedule).
func TestKernelsSortAllZeroOneInputs(t *testing.T) {
	for _, n := range sortkernels.Widths() {
		// 1. schedule data, bit-sliced
		c := network.New(n)
		for _, lv := range sortkernels.Levels(n) {
			level := make(network.Level, 0, len(lv))
			for _, p := range lv {
				level = append(level, network.Comparator{Min: p[0], Max: p[1]})
			}
			c.AddLevel(level)
		}
		p := c.Compile()
		for i, g := range sortkernels.OutputPerm(n) {
			if i != g {
				t.Fatalf("width %d: committed kernel has a non-identity output permutation", n)
			}
		}
		state := make([]uint64, n)
		for base := 0; base < 1<<n; base += 64 {
			for w := 0; w < n; w++ {
				var word uint64
				for lane := 0; lane < 64 && base+lane < 1<<n; lane++ {
					if (base+lane)>>w&1 == 1 {
						word |= 1 << lane
					}
				}
				state[w] = word
			}
			p.EvalBits(state)
			for w := 0; w+1 < n; w++ {
				if bad := state[w] &^ state[w+1]; bad != 0 {
					t.Fatalf("width %d: schedule fails 0-1 input near mask %d", n, base)
				}
			}
		}
		// 2. the compiled kernel itself, scalar
		checkZeroOneKernel[int](t, n)
		checkZeroOneKernel[int8](t, n)
	}
}

// checkZeroOneKernel runs the generic width-n kernel at element type T
// on all 2^n 0-1 inputs.
func checkZeroOneKernel[T int | int8](t *testing.T, n int) {
	t.Helper()
	in := make([]T, n)
	for mask := 0; mask < 1<<n; mask++ {
		ones := 0
		for w := 0; w < n; w++ {
			in[w] = T(mask >> w & 1)
			ones += int(in[w])
		}
		if !sortkernels.Ordered(in) {
			t.Fatalf("width %d: no kernel", n)
		}
		for w := 0; w < n; w++ {
			var want T
			if w >= n-ones {
				want = 1
			}
			if in[w] != want {
				t.Fatalf("width %d: Sort%dOrdered[%T] fails 0-1 input mask %d: %v", n, n, want, mask, in)
			}
		}
	}
}

// The kernel metadata must match the curated networks' shape: widths
// 2..16 contiguous, depths at the proven optima recorded in netbuild.
func TestKernelMeta(t *testing.T) {
	widths := sortkernels.Widths()
	if len(widths) != sortkernels.MaxWidth-sortkernels.MinWidth+1 {
		t.Fatalf("Widths() = %v: not contiguous over [%d, %d]", widths, sortkernels.MinWidth, sortkernels.MaxWidth)
	}
	wantDepth := []int{0, 0, 1, 3, 3, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 9, 9}
	for _, n := range widths {
		if got := sortkernels.Depth(n); got != wantDepth[n] {
			t.Errorf("Depth(%d) = %d, want proven optimum %d", n, got, wantDepth[n])
		}
		if got := sortkernels.Size(n); got != len(flatten(sortkernels.Levels(n))) {
			t.Errorf("Size(%d) = %d disagrees with Levels", n, got)
		}
	}
}

func flatten(levels [][][2]int) [][2]int {
	var out [][2]int
	for _, lv := range levels {
		out = append(out, lv...)
	}
	return out
}

// FuzzSortT cross-checks Sort against slices.Sort on fuzzer-chosen
// inputs for every element kind the kernels serve, named types
// included. Float lanes skip NaN payloads; NaN placement has its own
// test.
func FuzzSortT(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8*64 {
			data = data[:8*64]
		}
		n := len(data) / 8
		ints := make([]int, 0, n)
		us := make([]uint64, 0, n)
		fs := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			u := binary.LittleEndian.Uint64(data[8*i:])
			ints = append(ints, int(u))
			us = append(us, u)
			if f := math.Float64frombits(u); !math.IsNaN(f) {
				fs = append(fs, f)
			}
		}
		ss := make([]string, 0, len(data)%17)
		for i := 0; i < cap(ss); i++ {
			ss = append(ss, string(data[i%max(1, len(data)):]))
		}
		checkSort(t, ints)
		checkSort(t, us)
		checkSort(t, fs)
		checkSort(t, ss)
		checkKinds(t, us, ss)
	})
}
