package core

import (
	"context"
	"math/rand"
	"testing"

	"shufflenet/internal/delta"
	"shufflenet/internal/perm"
	"shufflenet/internal/sortcheck"
)

func TestZeroOneWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{16, 64, 256} {
		l := lg(n)
		it := delta.NewIterated(n)
		it.AddBlock(nil, delta.Butterfly(l))
		it.AddBlock(perm.Random(n, rng), delta.Butterfly(l))
		an, _ := Theorem41Ctx(context.Background(), it, 0)
		cert, err := an.Certificate()
		if err != nil {
			t.Fatal(err)
		}
		circ, _ := it.ToNetwork()
		w, err := cert.ZeroOneWitness(circ)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for _, v := range w {
			if v != 0 && v != 1 {
				t.Fatalf("witness not 0-1: %v", w)
			}
		}
		if sortcheck.IsSorted(circ.Eval(w)) {
			t.Fatalf("n=%d: witness does not fail", n)
		}
	}
}

func TestZeroOneWitnessRejectsBadCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	n := 32
	it := delta.NewIterated(n)
	it.AddBlock(nil, delta.Butterfly(5))
	it.AddBlock(perm.Random(n, rng), delta.Butterfly(5))
	an, _ := Theorem41Ctx(context.Background(), it, 0)
	cert, err := an.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	// Verify against the wrong circuit: must fail cleanly.
	wrong, _ := delta.BitonicIterated(5).ToNetwork()
	if _, err := cert.ZeroOneWitness(wrong); err == nil {
		t.Fatal("witness extracted with an invalid certificate")
	}
}
