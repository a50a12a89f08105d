package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"shufflenet/internal/delta"
	"shufflenet/internal/par"
)

// Cancellation contract of the engine entry points: a canceled context
// yields a typed *par.ErrCanceled carrying the honest partial progress,
// and a partial Analysis never claims blocks it did not finish.

func TestTheorem41CtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	it := iteratedButterflies(64, 2, nil)
	an, err := Theorem41Ctx(ctx, it, 0)
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	var ce *par.ErrCanceled
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *par.ErrCanceled", err)
	}
	if ce.Op != "core.Theorem41" {
		t.Fatalf("Op = %q", ce.Op)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not unwrap to context.Canceled: %v", err)
	}
	if ce.BlocksDone != 0 {
		t.Fatalf("pre-canceled run claims %d completed blocks", ce.BlocksDone)
	}
	// The partial Analysis is the state before any block: the whole
	// input set survives.
	if an == nil {
		t.Fatal("no partial Analysis returned")
	}
	if len(an.D) != 64 || ce.Survivors != 64 {
		t.Fatalf("partial survivors: |D|=%d, field=%d, want 64", len(an.D), ce.Survivors)
	}
	if len(an.Reports) != 0 {
		t.Fatalf("partial Analysis claims %d block reports", len(an.Reports))
	}
}

func TestLemma41CtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tree := delta.Butterfly(4)
	res, err := Lemma41(ctx, tree, allM(16), 2)
	if res != nil {
		t.Fatalf("canceled lemma returned a result: %+v", res)
	}
	var ce *par.ErrCanceled
	if !errors.As(err, &ce) || ce.Op != "core.Lemma41" {
		t.Fatalf("error = %v, want ErrCanceled{Op: core.Lemma41}", err)
	}
}

func TestAddBlockCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inc := NewIncremental(16, 0)
	_, err := inc.AddBlock(ctx, nil, delta.NewForest(delta.Butterfly(4)))
	var ce *par.ErrCanceled
	if !errors.As(err, &ce) || ce.Op != "core.Incremental.AddBlock" {
		t.Fatalf("error = %v, want ErrCanceled{Op: core.Incremental.AddBlock}", err)
	}
	if ce.BlocksDone != 0 || ce.Survivors != 16 {
		t.Fatalf("partial fields: blocks=%d survivors=%d", ce.BlocksDone, ce.Survivors)
	}
}

// TestTheorem41CtxDeadlineMidRun drives a real deadline through the
// parallel recursion (run under -race this doubles as a data-race
// check on the cancellation unwinding). The assertions hold whichever
// side of the race fires: a canceled run must report a consistent
// prefix, a completed run must cover every block.
func TestTheorem41CtxDeadlineMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	it := iteratedButterflies(4096, 3, rng)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	an, err := Theorem41Ctx(ctx, it, 0)
	if an == nil {
		t.Fatal("no Analysis either way")
	}
	if err == nil {
		if len(an.Reports) != 3 {
			t.Fatalf("clean run has %d reports, want 3", len(an.Reports))
		}
		return
	}
	var ce *par.ErrCanceled
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *par.ErrCanceled", err)
	}
	if ce.BlocksDone != len(an.Reports) || ce.BlocksDone >= 3 {
		t.Fatalf("canceled after %d blocks but Analysis has %d reports",
			ce.BlocksDone, len(an.Reports))
	}
	if ce.Survivors != len(an.D) {
		t.Fatalf("Survivors field %d != |D| %d", ce.Survivors, len(an.D))
	}
}
