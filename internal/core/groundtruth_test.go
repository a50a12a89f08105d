package core

import (
	"context"
	"math/rand"
	"testing"

	"shufflenet/internal/delta"
	"shufflenet/internal/pattern"
	"shufflenet/internal/perm"
)

// Ground truth at small n: the certificate's noncolliding claim is
// checked against EVERY refinement of the final pattern (Definition
// 3.6 verbatim), not just the symbol simulation — the certificate pair
// must classify as CollideNever and the whole set D as noncolliding by
// exhaustion.
func TestCertificateGroundTruthExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 5; trial++ {
		n := 8
		it := delta.NewIterated(n)
		it.AddBlock(nil, delta.Random(3, 1.0, rng))
		it.AddBlock(perm.Random(n, rng), delta.Random(3, 1.0, rng))
		an, _ := Theorem41Ctx(context.Background(), it, 0)
		if len(an.D) < 2 {
			continue // tiny n: the adversary may legitimately run dry
		}
		if cnt := an.P.RefinementCount(); cnt < 0 || cnt > 100_000 {
			t.Fatalf("unexpected refinement count %d at n=8", cnt)
		}
		circ, _ := it.ToNetwork()
		if !pattern.NoncollidingExhaustive(circ, an.P, pattern.M(0)) {
			t.Fatalf("trial %d: D fails the exhaustive ground-truth check", trial)
		}
		cert, err := an.Certificate()
		if err != nil {
			t.Fatal(err)
		}
		if got := pattern.Classify(circ, an.P, cert.W0, cert.W1); got != pattern.CollideNever {
			t.Fatalf("certificate pair classifies as %v", got)
		}
	}
}
