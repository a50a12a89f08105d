package core

import (
	"context"
	"testing"

	"shufflenet/internal/delta"
	"shufflenet/internal/pattern"
)

// Above parallelSubtree the recursion forks; the result must be
// bit-identical across runs (all ties deterministic) and still satisfy
// every Lemma 4.1 invariant.
func TestLemma41ParallelPathDeterministicAndSound(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n adversary run")
	}
	n := 4 * parallelSubtree // forces several forked levels
	l := lg(n)
	tree := delta.Butterfly(l)
	p := pattern.Uniform(n, pattern.M(0))

	a, _ := Lemma41(context.Background(), tree, p, l)
	b, _ := Lemma41(context.Background(), tree, p, l)

	if !a.Q.Equal(b.Q) {
		t.Fatal("parallel recursion nondeterministic: patterns differ")
	}
	if a.Survivors != b.Survivors || a.T != b.T {
		t.Fatal("parallel recursion nondeterministic: summary differs")
	}
	for i := range a.OutWire {
		if a.OutWire[i] != b.OutWire[i] {
			t.Fatal("parallel recursion nondeterministic: routing differs")
		}
	}
	if len(a.Sets) != len(b.Sets) {
		t.Fatal("parallel recursion nondeterministic: set counts differ")
	}
	for i, ws := range a.Sets {
		if len(b.Sets[i]) != len(ws) {
			t.Fatalf("set %d differs across runs", i)
		}
	}

	// Spot-check the survival bound and set disjointness at this scale
	// (the full independent noncollision check is quadratic in n and is
	// covered at smaller n by checkLemmaInvariants).
	if l*l*a.Survivors < a.Initial*(l*l-l) {
		t.Fatalf("survival bound violated at n=%d", n)
	}
	seen := make([]bool, n)
	for _, ws := range a.Sets {
		for _, w := range ws {
			if seen[w] {
				t.Fatal("sets overlap")
			}
			seen[w] = true
		}
	}
}
