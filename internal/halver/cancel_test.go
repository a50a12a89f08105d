package halver

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"shufflenet/internal/netbuild"
	"shufflenet/internal/par"
)

func TestEpsilonCtxBackgroundMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := CrossMatchings(12, 2, rng)
	want := Epsilon(c, 0)
	got, err := EpsilonCtx(context.Background(), c, 0)
	if err != nil || got != want {
		t.Fatalf("EpsilonCtx = (%v, %v), Epsilon = %v", got, err, want)
	}
}

func TestEpsilonCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eps, err := EpsilonCtx(ctx, netbuild.Bitonic(16), 0)
	var ce *par.ErrCanceled
	if !errors.As(err, &ce) || ce.Op != "halver.Epsilon" {
		t.Fatalf("error = %v, want ErrCanceled{Op: halver.Epsilon}", err)
	}
	if ce.MasksChecked != 0 {
		t.Fatalf("pre-canceled scan claims %d masks", ce.MasksChecked)
	}
	// The partial value is a max over zero masks: the trivial bound.
	if eps != 0 {
		t.Fatalf("partial eps = %v, want 0", eps)
	}
}

// TestEpsilonCtxDeadlineMidScan cancels a 2^22-mask scan by deadline.
// Either outcome of the race is checked: a canceled scan must report a
// partial mask count and an eps within [0, 1] that is at most the full
// scan's ε (the documented lower bound), a completed scan must agree
// with the plain API.
func TestEpsilonCtxDeadlineMidScan(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := CrossMatchings(22, 1, rng)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	eps, err := EpsilonCtx(ctx, c, 0)
	if eps < 0 || eps > 1 {
		t.Fatalf("eps = %v out of [0,1]", eps)
	}
	if err == nil {
		if want := Epsilon(c, 0); eps != want {
			t.Fatalf("clean run eps = %v, want %v", eps, want)
		}
		return
	}
	var ce *par.ErrCanceled
	if !errors.As(err, &ce) || ce.Op != "halver.Epsilon" {
		t.Fatalf("error = %v, want ErrCanceled{Op: halver.Epsilon}", err)
	}
	if ce.MasksChecked < 0 || ce.MasksChecked >= 1<<22 {
		t.Fatalf("MasksChecked = %d, want a proper partial count", ce.MasksChecked)
	}
	if full := Epsilon(c, 0); eps > full {
		t.Fatalf("partial eps = %v exceeds the full scan's %v", eps, full)
	}
}
