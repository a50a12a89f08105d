package core

import (
	"context"
	"testing"

	"shufflenet/internal/delta"
	"shufflenet/internal/network"
	"shufflenet/internal/pattern"
)

func TestOptimalNoncollidingButterfly(t *testing.T) {
	circ := delta.Butterfly(3).ToNetwork()
	size, p, set, _ := OptimalNoncollidingOpt(context.Background(), circ, OptimalOptions{})
	if size != len(set) || p.Count(pattern.M(0)) != size {
		t.Fatalf("inconsistent result: size=%d set=%v", size, set)
	}
	if !pattern.Noncolliding(circ, p, pattern.M(0)) {
		t.Fatal("witness pattern is colliding")
	}
	// The 3-level butterfly admits a noncolliding pair at least.
	if size < 2 {
		t.Fatalf("optimal size %d < 2 on a lg-n-depth network", size)
	}
	// The constructive adversary cannot beat it.
	an, _ := Theorem41Ctx(context.Background(), delta.NewIterated(8).AddBlock(nil, delta.Butterfly(3)), 0)
	if len(an.D) > size {
		t.Fatalf("adversary %d beats optimum %d", len(an.D), size)
	}
}

func TestOptimalNoncollidingEmptyNetwork(t *testing.T) {
	// With no comparators, everything is noncolliding: optimum = n.
	size, _, _, _ := OptimalNoncollidingOpt(context.Background(), network.New(6), OptimalOptions{})
	if size != 6 {
		t.Fatalf("empty network optimum = %d, want 6", size)
	}
}

func TestOptimalNoncollidingSorter(t *testing.T) {
	// A sorting network admits only singletons.
	circ, place := delta.BitonicIterated(3).ToNetwork()
	_ = place
	size, _, _, _ := OptimalNoncollidingOpt(context.Background(), circ, OptimalOptions{})
	if size != 1 {
		t.Fatalf("sorting network optimum = %d, want 1", size)
	}
}

func TestOptimalNoncollidingGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for n > MaxOptimalWires")
		}
	}()
	OptimalNoncollidingOpt(context.Background(), network.New(MaxOptimalWires+1), OptimalOptions{})
}
