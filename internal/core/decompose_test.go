package core

import (
	"context"
	"math/rand"
	"testing"

	"shufflenet/internal/delta"
	"shufflenet/internal/perm"
)

// The adversary must work on networks given only as circuits: flatten
// an iterated RDN, recover the structure with DecomposeIterated, run
// Theorem 4.1 on the recovery, and verify the certificate against the
// ORIGINAL circuit.
func TestAdversaryOnDecomposedCircuit(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, n := range []int{32, 64} {
		l := lg(n)
		orig := delta.NewIterated(n)
		orig.AddBlock(nil, delta.Butterfly(l))
		orig.AddBlock(perm.Random(n, rng), delta.Random(l, 1.0, rng))
		circ, _ := orig.ToNetwork()

		recovered, ok := delta.DecomposeIterated(circ, l)
		if !ok {
			t.Fatalf("n=%d: decomposition failed", n)
		}
		an, _ := Theorem41Ctx(context.Background(), recovered, 0)
		if len(an.D) < 2 {
			t.Fatalf("n=%d: adversary found nothing on the recovered structure", n)
		}
		cert, err := an.Certificate()
		if err != nil {
			t.Fatal(err)
		}
		// Verified against the original circuit, not the recovery.
		if err := cert.Verify(circ); err != nil {
			t.Fatalf("n=%d: certificate rejected by the original circuit: %v", n, err)
		}
	}
}

// Round-trip soundness: a decomposed sorting network still defeats the
// adversary.
func TestAdversaryOnDecomposedBitonic(t *testing.T) {
	d := 4
	circ, _ := delta.BitonicIterated(d).ToNetwork()
	recovered, ok := delta.DecomposeIterated(circ, d)
	if !ok {
		t.Fatal("decomposition failed")
	}
	an, _ := Theorem41Ctx(context.Background(), recovered, 0)
	if _, err := an.Certificate(); err == nil {
		t.Fatal("certificate extracted from a (decomposed) sorting network")
	}
}
