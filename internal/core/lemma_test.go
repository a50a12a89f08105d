package core

import (
	"context"
	"math/rand"
	"testing"

	"shufflenet/internal/delta"
	"shufflenet/internal/pattern"
)

// checkLemmaInvariants verifies every claim of Lemma 4.1 on the result,
// independently of the construction: set disjointness, B ⊆ A, the
// survival bound, the refinement relation p ⊃_A q, that each set is the
// [M_i]-set of q, and — the core property — that every set is
// noncolliding in the tree under q (checked by symbol simulation on the
// flattened circuit, which is an independent code path from the
// recursion).
func checkLemmaInvariants(t *testing.T, tree *delta.Network, p pattern.Pattern, k int, res *LemmaResult) {
	t.Helper()
	a := p.Set(pattern.M(0))
	inA := map[int]bool{}
	for _, w := range a {
		inA[w] = true
	}

	// t(l) bound and set-index range.
	if want := k*k*k + tree.Levels()*k*k; res.T != want {
		t.Fatalf("T = %d, want %d", res.T, want)
	}

	if len(res.Sets) != res.T {
		t.Fatalf("Sets has length %d, want T = %d", len(res.Sets), res.T)
	}
	seen := map[int]bool{}
	total := 0
	for i, ws := range res.Sets {
		if len(ws) == 0 {
			continue
		}
		for _, w := range ws {
			if seen[w] {
				t.Fatalf("wire %d in two sets", w)
			}
			seen[w] = true
			if !inA[w] {
				t.Fatalf("wire %d in B but not in A", w)
			}
			if res.Q[w] != pattern.M(i) {
				t.Fatalf("wire %d in set %d carries %v", w, i, res.Q[w])
			}
		}
		total += len(ws)
		// Conversely the [M_i]-set of Q must be exactly ws.
		if got := res.Q.Set(pattern.M(i)); len(got) != len(ws) {
			t.Fatalf("[M_%d]-set of Q has %d wires, set has %d", i, len(got), len(ws))
		}
	}
	if total != res.Survivors {
		t.Fatalf("Survivors = %d, but sets hold %d", res.Survivors, total)
	}
	if res.Initial != len(a) {
		t.Fatalf("Initial = %d, |A| = %d", res.Initial, len(a))
	}
	// Survival bound: |B| >= |A|(1 - l/k²).
	if k*k*res.Survivors < res.Initial*(k*k-tree.Levels()) {
		t.Fatalf("survival bound violated: |B|=%d |A|=%d l=%d k=%d",
			res.Survivors, res.Initial, tree.Levels(), k)
	}

	// Refinement: p ⊃_A q.
	if !p.URefines(res.Q, a) {
		t.Fatalf("Q is not an A-refinement of p")
	}

	// Noncollision, independently via pattern evaluation on the
	// flattened circuit.
	circ := tree.ToNetwork()
	for i, ws := range res.Sets {
		if len(ws) == 0 {
			continue
		}
		if !pattern.Noncolliding(circ, res.Q, pattern.M(i)) {
			t.Fatalf("set %d collides in the tree under Q", i)
		}
	}

	// OutWire must be a permutation of the slots.
	seenOut := make([]bool, tree.Inputs())
	for _, w := range res.OutWire {
		if seenOut[w] {
			t.Fatalf("OutWire not a permutation")
		}
		seenOut[w] = true
	}
}

func allM(n int) pattern.Pattern { return pattern.Uniform(n, pattern.M(0)) }

func TestLemma41Leaf(t *testing.T) {
	res, _ := Lemma41(context.Background(), delta.Leaf(), pattern.Pattern{pattern.M(0)}, 3)
	if res.Survivors != 1 || len(res.Sets[0]) != 1 {
		t.Fatalf("leaf result wrong: %+v", res)
	}
	res, _ = Lemma41(context.Background(), delta.Leaf(), pattern.Pattern{pattern.S(0)}, 3)
	if res.Survivors != 0 || res.SetCount() != 0 {
		t.Fatalf("leaf with S0 should have no sets")
	}
}

func TestLemma41Butterfly(t *testing.T) {
	for _, l := range []int{1, 2, 3, 4, 5} {
		tree := delta.Butterfly(l)
		p := allM(tree.Inputs())
		k := maxInt(2, l)
		res, _ := Lemma41(context.Background(), tree, p, k)
		checkLemmaInvariants(t, tree, p, k, res)
	}
}

func TestLemma41ButterflyPaperParameters(t *testing.T) {
	// The paper's setting: l = k = lg n.
	for _, l := range []int{3, 4, 5, 6} {
		tree := delta.Butterfly(l)
		p := allM(tree.Inputs())
		res, _ := Lemma41(context.Background(), tree, p, l)
		checkLemmaInvariants(t, tree, p, l, res)
		if res.Survivors == 0 {
			t.Fatalf("l=%d: everything lost", l)
		}
	}
}

func TestLemma41RandomRDNs(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		l := 1 + rng.Intn(5)
		tree := delta.Random(l, 0.3+0.7*rng.Float64(), rng)
		p := allM(tree.Inputs())
		k := 2 + rng.Intn(4)
		res, _ := Lemma41(context.Background(), tree, p, k)
		checkLemmaInvariants(t, tree, p, k, res)
	}
}

func TestLemma41MixedPattern(t *testing.T) {
	// S and L wires dilute the tracked set; invariants must still hold.
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 25; trial++ {
		l := 2 + rng.Intn(4)
		tree := delta.Random(l, 0.8, rng)
		n := tree.Inputs()
		p := make(pattern.Pattern, n)
		for i := range p {
			switch rng.Intn(3) {
			case 0:
				p[i] = pattern.S(0)
			case 1:
				p[i] = pattern.M(0)
			default:
				p[i] = pattern.L(0)
			}
		}
		k := 2 + rng.Intn(3)
		res, _ := Lemma41(context.Background(), tree, p, k)
		checkLemmaInvariants(t, tree, p, k, res)
	}
}

func TestLemma41EmptyASurvivesTrivially(t *testing.T) {
	tree := delta.Butterfly(3)
	p := pattern.Uniform(8, pattern.S(0))
	res, _ := Lemma41(context.Background(), tree, p, 3)
	if res.Survivors != 0 || res.Initial != 0 || res.SetCount() != 0 {
		t.Fatal("no tracked wires expected")
	}
}

func TestLemma41LargestSet(t *testing.T) {
	tree := delta.Butterfly(4)
	p := allM(16)
	res, _ := Lemma41(context.Background(), tree, p, 4)
	idx, ws := res.LargestSet()
	if idx < 0 || len(ws) == 0 {
		t.Fatal("no largest set")
	}
	for i, s := range res.Sets {
		if len(s) > len(ws) {
			t.Fatalf("set %d larger than reported largest", i)
		}
	}
}

func TestLemma41OutWireConsistentWithEvaluation(t *testing.T) {
	// For tracked wires, OutWire must match concrete-value routing
	// under a refinement of Q.
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 10; trial++ {
		l := 2 + rng.Intn(3)
		tree := delta.Random(l, 0.9, rng)
		p := allM(tree.Inputs())
		res, _ := Lemma41(context.Background(), tree, p, 3)
		circ := tree.ToNetwork()
		sim := pattern.EvalTrace(circ, res.Q)
		for _, ws := range res.Sets {
			for _, w := range ws {
				// o is the output slot with OutWire[o] == w; the
				// independent simulation must route w there too.
				o := indexWhere(res.OutWire, w)
				if sim.PosOf[w] != o {
					t.Fatalf("tracked wire %d: recursion says slot %d, simulation %d",
						w, o, sim.PosOf[w])
				}
			}
		}
	}
}

func TestLemma41Panics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("bad width", func() { Lemma41(context.Background(), delta.Butterfly(2), allM(8), 2) })
	mustPanic("bad k", func() { Lemma41(context.Background(), delta.Butterfly(2), allM(4), 0) })
	mustPanic("k above MaxK", func() { Lemma41(context.Background(), delta.Butterfly(2), allM(4), MaxK+1) })
	mustPanic("bad symbol", func() {
		p := allM(4)
		p[0] = pattern.X(0, 0)
		Lemma41(context.Background(), delta.Butterfly(2), p, 2)
	})
}

func indexWhere(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}
