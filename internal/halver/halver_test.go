package halver

import (
	"context"
	"math/rand"
	"testing"

	"shufflenet/internal/netbuild"
	"shufflenet/internal/network"
	"shufflenet/internal/par"
	"shufflenet/internal/sortcheck"
)

func TestCrossMatchingsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := CrossMatchings(16, 4, rng)
	if c.Depth() != 4 || c.Size() != 4*8 || c.Wires() != 16 {
		t.Fatalf("shape: %v", c)
	}
	// Every comparator must cross the halves, min toward the bottom.
	for _, lv := range c.Levels() {
		for _, cm := range lv {
			if cm.Min >= 8 || cm.Max < 8 {
				t.Fatalf("comparator (%d,%d) does not cross downward", cm.Min, cm.Max)
			}
		}
	}
}

func TestEpsilonPerfectHalver(t *testing.T) {
	// A full sorting network is a 0-halver.
	c := netbuild.Bitonic(8)
	if eps := Epsilon(c, 0); eps != 0 {
		t.Errorf("sorting network has eps = %v", eps)
	}
}

func TestEpsilonEmptyNetwork(t *testing.T) {
	// The empty network is only a 1-halver (everything can be
	// misplaced).
	c := network.New(8)
	if eps := Epsilon(c, 0); eps != 1 {
		t.Errorf("empty network eps = %v, want 1", eps)
	}
}

func TestEpsilonSingleCrossMatching(t *testing.T) {
	// One perfect cross-matching guarantees eps <= 1/2 ... in fact a
	// single matching moves at least ceil(k/2)? No: with k ones all in
	// the bottom, each meets a distinct top wire carrying 0 and swaps
	// up; so NO one stays below: one matching is already a good halver
	// for k <= m? Not quite: ones meeting ones stay. Verify the exact
	// value is strictly below 1 and matches a brute-force check.
	rng := rand.New(rand.NewSource(2))
	c := CrossMatchings(12, 1, rng)
	eps := Epsilon(c, 0)
	if eps >= 1 {
		t.Errorf("one matching should beat the empty network, eps = %v", eps)
	}
	if eps != Epsilon(c, 1) {
		t.Errorf("parallel/sequential Epsilon disagree")
	}
}

func TestEpsilonImprovesWithPasses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 16
	prev := 1.1
	for _, passes := range []int{1, 3, 6} {
		c := CrossMatchings(n, passes, rand.New(rand.NewSource(int64(passes))))
		eps := Epsilon(c, 0)
		if eps > prev {
			t.Errorf("eps did not improve: passes=%d eps=%v prev=%v", passes, eps, prev)
		}
		prev = eps
	}
	_ = rng
}

func TestIsEpsilonHalver(t *testing.T) {
	c := CrossMatchings(12, 6, rand.New(rand.NewSource(4)))
	eps := Epsilon(c, 0)
	if !IsEpsilonHalver(c, eps, 0) {
		t.Error("network is not an (its own eps)-halver")
	}
	if IsEpsilonHalver(c, eps-0.05, 0) && eps >= 0.05 {
		t.Error("IsEpsilonHalver accepted a smaller eps")
	}
}

func TestCascadeShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, passes := 32, 3
	c := Cascade(n, passes, rng)
	if c.Depth() != passes*5 {
		t.Fatalf("depth = %d, want %d", c.Depth(), passes*5)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCascadeNearlySorts(t *testing.T) {
	// A halver cascade nearly sorts: more passes give systematically
	// lower dislocation and fewer inversions on random inputs (exact
	// sorting is rare — the cascade is the AKS skeleton without its
	// error-correction, so we grade by how *close* to sorted it gets).
	n := 64
	rich := Cascade(n, 6, rand.New(rand.NewSource(6)))
	poor := Cascade(n, 1, rand.New(rand.NewSource(6)))
	rng := rand.New(rand.NewSource(8))
	var dRich, dPoor, invRich, invPoor int64
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		in := rng.Perm(n)
		outRich, outPoor := rich.Eval(in), poor.Eval(in)
		dRich += int64(sortcheck.MaxDislocation(outRich))
		dPoor += int64(sortcheck.MaxDislocation(outPoor))
		invRich += sortcheck.Inversions(outRich)
		invPoor += sortcheck.Inversions(outPoor)
	}
	if dRich >= dPoor {
		t.Errorf("mean dislocation did not improve: rich=%d poor=%d", dRich, dPoor)
	}
	if invRich >= invPoor/4 {
		t.Errorf("inversions should drop sharply: rich=%d poor=%d", invRich, invPoor)
	}
	// The rich cascade should leave only local disorder: average max
	// dislocation well below n/4.
	if dRich/trials > int64(n)/4 {
		t.Errorf("rich cascade mean dislocation %d >= n/4", dRich/trials)
	}
}

func TestGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("odd n", func() { CrossMatchings(7, 1, rand.New(rand.NewSource(1))) })
	mustPanic("Epsilon too wide", func() { Epsilon(network.New(MaxEpsilonWires+2), 0) })
	mustPanic("Epsilon odd width", func() { Epsilon(network.New(9), 0) })
	mustPanic("Cascade non-pow2", func() { Cascade(12, 1, rand.New(rand.NewSource(1))) })
}

// TestEpsilonBitsMatchesScalar: the bit-sliced Epsilon and the scalar
// oracle must agree exactly (identical float divisions, max over the
// same set) across random cross-matchings, cascades, and degenerate
// networks.
func TestEpsilonBitsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 4, 6, 8, 12, 16} {
		for passes := 0; passes <= 4; passes++ {
			c := CrossMatchings(n, passes, rng)
			got := Epsilon(c, 0)
			want := epsilonScalar(c, 0)
			if got != want {
				t.Errorf("CrossMatchings(n=%d, passes=%d): Epsilon %v != scalar %v", n, passes, got, want)
			}
		}
	}
	for _, n := range []int{4, 8, 16} {
		c := Cascade(n, 2, rng)
		got := Epsilon(c, 0)
		want := epsilonScalar(c, 0)
		if got != want {
			t.Errorf("Cascade(n=%d): Epsilon %v != scalar %v", n, got, want)
		}
	}
	// Workers must not change the result.
	c := CrossMatchings(12, 3, rng)
	want := epsilonScalar(c, 1)
	for _, w := range []int{1, 2, 4} {
		if got := Epsilon(c, w); got != want {
			t.Errorf("workers=%d: Epsilon %v != scalar %v", w, got, want)
		}
	}
}

// epsilonScalar computes Epsilon by scalar enumeration (one Eval per
// mask): the differential-test oracle for the bit-sliced path. Under a
// Background context ForEachChunk makes one body call per worker
// range, which the slot arithmetic relies on.
func epsilonScalar(c *network.Network, workers int) float64 {
	n := c.Wires()
	m := n / 2
	total := 1 << uint(n)
	w := par.Workers(total, workers)
	worst := make([]float64, w)
	par.ForEachChunk(context.Background(), total, w, par.DefaultGrain, func(lo, hi int) {
		slot := lo / ((total + w - 1) / w)
		if slot >= w {
			slot = w - 1
		}
		local := 0.0
		for mask := lo; mask < hi; mask++ {
			in := sortcheck.ZeroOneInput(uint64(mask), n)
			ones := 0
			for _, v := range in {
				ones += v
			}
			if ones == 0 || ones == n {
				continue
			}
			out := c.Eval(in)
			// k largest = the `ones` 1-values; misplaced = ones in the
			// lower half. Meaningful when ones <= m.
			onesLow := 0
			for i := 0; i < m; i++ {
				onesLow += out[i]
			}
			if ones <= m {
				if r := float64(onesLow) / float64(ones); r > local {
					local = r
				}
			}
			// k smallest = the zeros; misplaced = zeros in the upper
			// half. Meaningful when zeros <= m.
			zeros := n - ones
			if zeros <= m {
				zerosHigh := 0
				for i := m; i < n; i++ {
					zerosHigh += 1 - out[i]
				}
				if r := float64(zerosHigh) / float64(zeros); r > local {
					local = r
				}
			}
		}
		if local > worst[slot] {
			worst[slot] = local
		}
	})
	eps := 0.0
	for _, v := range worst {
		if v > eps {
			eps = v
		}
	}
	return eps
}

// BenchmarkHalverEpsilon/scalar measures the scalar oracle on the same
// 2^16-input instance as the root package's BenchmarkHalverEpsilon/bits.
func BenchmarkHalverEpsilon(b *testing.B) {
	c := CrossMatchings(16, 4, rand.New(rand.NewSource(10)))
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			epsilonScalar(c, 0)
		}
		b.ReportMetric(float64(1<<16)*float64(b.N)/b.Elapsed().Seconds(), "inputs/s")
	})
}
