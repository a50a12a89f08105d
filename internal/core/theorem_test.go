package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"shufflenet/internal/delta"
	"shufflenet/internal/pattern"
	"shufflenet/internal/perm"
	"shufflenet/internal/sortcheck"
)

// checkAnalysis verifies the Theorem 4.1 claims independently: the
// final pattern uses only S0/M0/L0, and its [M_0]-set is noncolliding
// in the flattened circuit, checked both by symbol simulation and by
// concrete-input replay.
func checkAnalysis(t *testing.T, it *delta.Iterated, an *Analysis) {
	t.Helper()
	for _, s := range an.P {
		if s != pattern.S(0) && s != pattern.M(0) && s != pattern.L(0) {
			t.Fatalf("final pattern contains %v", s)
		}
	}
	circ, _ := it.ToNetwork()
	if len(an.D) >= 2 {
		if !pattern.Noncolliding(circ, an.P, pattern.M(0)) {
			t.Fatal("D is not noncolliding (symbol simulation)")
		}
		if !pattern.VerifyNoncollidingByInputs(circ, an.P, pattern.M(0), 2*len(an.D)) {
			t.Fatal("D is not noncolliding (concrete replay)")
		}
	}
	set := an.P.Set(pattern.M(0))
	if len(set) != len(an.D) {
		t.Fatalf("D inconsistent with pattern: %d vs %d", len(an.D), len(set))
	}
}

func iteratedButterflies(n, blocks int, rng *rand.Rand) *delta.Iterated {
	it := delta.NewIterated(n)
	l := lg(n)
	for b := 0; b < blocks; b++ {
		var pre perm.Perm
		if b > 0 && rng != nil {
			pre = perm.Random(n, rng)
		}
		it.AddBlock(pre, delta.Butterfly(l))
	}
	return it
}

func TestTheorem41SingleButterfly(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64} {
		it := iteratedButterflies(n, 1, nil)
		an, _ := Theorem41Ctx(context.Background(), it, 0)
		checkAnalysis(t, it, an)
		if len(an.Reports) != 1 {
			t.Fatalf("want 1 report, got %d", len(an.Reports))
		}
		rep := an.Reports[0]
		if rep.Before != n {
			t.Fatalf("n=%d: Before = %d", n, rep.Before)
		}
		// Lemma guarantee with k = lg n, l = lg n: at least n(1 - 1/lg n)
		// survive across all sets.
		k := an.K
		if k*k*rep.Survivors < n*(k*k-lg(n)) {
			t.Fatalf("n=%d: survivors %d below bound", n, rep.Survivors)
		}
		if rep.After < 1 {
			t.Fatalf("n=%d: largest set empty", n)
		}
	}
}

func TestTheorem41MultiBlockRandomGlue(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{16, 32, 64} {
		for blocks := 1; blocks <= 3; blocks++ {
			it := iteratedButterflies(n, blocks, rng)
			an, _ := Theorem41Ctx(context.Background(), it, 0)
			checkAnalysis(t, it, an)
			if len(an.Reports) != blocks {
				t.Fatalf("reports: %d", len(an.Reports))
			}
			// |D| must meet the paper bound whenever that bound is
			// nontrivial.
			if pb := an.Reports[blocks-1].PaperBound; float64(len(an.D)) < pb {
				t.Fatalf("n=%d blocks=%d: |D|=%d below paper bound %.3f",
					n, blocks, len(an.D), pb)
			}
		}
	}
}

func TestTheorem41RandomRDNBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n := 32
	for trial := 0; trial < 10; trial++ {
		it := delta.NewIterated(n)
		blocks := 1 + rng.Intn(3)
		for b := 0; b < blocks; b++ {
			it.AddBlock(perm.Random(n, rng), delta.Random(5, 0.5+0.5*rng.Float64(), rng))
		}
		an, _ := Theorem41Ctx(context.Background(), it, 0)
		checkAnalysis(t, it, an)
	}
}

func TestTheorem41ForestBlocks(t *testing.T) {
	// Truncated blocks (Section 5): forests of shallow trees.
	rng := rand.New(rand.NewSource(44))
	n := 32
	it := delta.NewIterated(n)
	for b := 0; b < 4; b++ {
		f := 2 // tree levels
		var trees []*delta.Network
		for i := 0; i < n/(1<<f); i++ {
			trees = append(trees, delta.Random(f, 1.0, rng))
		}
		it.AddForest(perm.Random(n, rng), delta.NewForest(trees...))
	}
	an, _ := Theorem41Ctx(context.Background(), it, 0)
	checkAnalysis(t, it, an)
	// Shallow blocks lose little: with l=2 and k=5, each block keeps
	// > 90% of wires across sets; after 4 blocks the largest set should
	// still be sizable.
	if len(an.D) < 2 {
		t.Fatalf("|D| = %d after shallow blocks", len(an.D))
	}
}

func TestCertificateOnIteratedButterflies(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{16, 32, 64} {
		it := iteratedButterflies(n, 2, rng)
		an, _ := Theorem41Ctx(context.Background(), it, 0)
		cert, err := an.Certificate()
		if err != nil {
			if errors.Is(err, ErrSetTooSmall) {
				t.Fatalf("n=%d: adversary should survive 2 butterfly blocks (|D|=%d)", n, len(an.D))
			}
			t.Fatal(err)
		}
		circ, _ := it.ToNetwork()
		if err := cert.Verify(circ); err != nil {
			t.Fatalf("n=%d: certificate rejected: %v", n, err)
		}
		// The certificate also demonstrates unsortedness concretely:
		// the two outputs cannot both be sorted under any labeling —
		// in particular under the identity labeling at most one is.
		o1, o2 := circ.Eval(cert.Pi), circ.Eval(cert.PiPrime)
		if sortcheck.IsSorted(o1) && sortcheck.IsSorted(o2) {
			t.Fatal("both certificate outputs sorted?!")
		}
	}
}

func TestAdversaryCannotBeatSortingNetwork(t *testing.T) {
	// Bitonic sort IS an iterated RDN (with bit-reversal glue); the
	// adversary must NOT find a noncolliding pair in it — a sorting
	// network compares every adjacent pair. This is the strongest
	// soundness check available: if the machinery ever reported |D| >= 2
	// here, it would be provably buggy.
	for _, d := range []int{2, 3, 4} {
		n := 1 << uint(d)
		it := delta.BitonicIterated(d)
		// Confirm it sorts first.
		circ, place := it.ToNetwork()
		ok, w := sortcheck.ZeroOne(n, remapEval{circ, place}, 0)
		if !ok {
			t.Fatalf("d=%d: bitonic iterated RDN does not sort (%v)", d, w)
		}
		an, _ := Theorem41Ctx(context.Background(), it, 0)
		checkAnalysis(t, it, an)
		if _, err := an.Certificate(); err == nil {
			t.Fatalf("d=%d: extracted a certificate from a sorting network!", d)
		}
	}
}

// remapEval evaluates a flattened iterated network and reorders the
// output rails back to slot order (sortedness in slot space).
type remapEval struct {
	c     interface{ Eval([]int) []int }
	place perm.Perm
}

func (e remapEval) Eval(in []int) []int {
	out := e.c.Eval(in)
	fixed := make([]int, len(out))
	for s, r := range e.place {
		fixed[s] = out[r]
	}
	return fixed
}

func TestCertificateVerifyRejectsTampering(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	n := 32
	it := iteratedButterflies(n, 2, rng)
	an, _ := Theorem41Ctx(context.Background(), it, 0)
	cert, err := an.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	circ, _ := it.ToNetwork()
	if err := cert.Verify(circ); err != nil {
		t.Fatal(err)
	}

	// Tamper 1: swap a value pair outside D.
	bad := *cert
	bad.Pi = append([]int(nil), cert.Pi...)
	var o1, o2 int = -1, -1
	for w := range bad.Pi {
		if w != cert.W0 && w != cert.W1 {
			if o1 == -1 {
				o1 = w
			} else if o2 == -1 {
				o2 = w
			}
		}
	}
	bad.Pi[o1], bad.Pi[o2] = bad.Pi[o2], bad.Pi[o1]
	if err := bad.Verify(circ); err == nil {
		t.Error("tampered Pi accepted")
	}

	// Tamper 2: claim a colliding pair. Take two wires carrying S0.
	bad2 := *cert
	sWires := cert.P.Set(pattern.S(0))
	if len(sWires) >= 2 {
		bad2.W0, bad2.W1 = sWires[0], sWires[1]
		if err := bad2.Verify(circ); err == nil {
			t.Error("certificate with wrong wires accepted")
		}
	}

	// Tamper 3: verify against the wrong network (a sorting network of
	// the same width flattened from the bitonic construction).
	it2 := delta.BitonicIterated(5)
	circ2, _ := it2.ToNetwork()
	if err := cert.Verify(circ2); err == nil {
		t.Error("certificate accepted against a sorting network")
	}
}

func TestPaperBound(t *testing.T) {
	// n / lg^{4d} n for n = 2^20, d = 1: 2^20 / 20^4 = 6.55...
	got := paperBound(1<<20, 1)
	if got < 6.5 || got > 6.6 {
		t.Errorf("paperBound = %v", got)
	}
}

func TestAnalysisString(t *testing.T) {
	an := &Analysis{K: 4, Reports: make([]BlockReport, 2), D: []int{1, 2, 3}}
	if an.String() != "analysis[k=4 blocks=2 |D|=3]" {
		t.Errorf("String = %q", an.String())
	}
}
