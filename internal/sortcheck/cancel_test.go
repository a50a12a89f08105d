package sortcheck

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"shufflenet/internal/par"
)

// slowEval wraps a network evaluator while hiding its Compile method,
// forcing the scalar fallback path; after trip evaluations it cancels
// the supplied context — a deterministic mid-scan cancellation.
type slowEval struct {
	inner  Evaluator
	calls  atomic.Int64
	trip   int64
	cancel context.CancelFunc
}

func (e *slowEval) Eval(in []int) []int {
	if e.calls.Add(1) == e.trip {
		e.cancel()
	}
	return e.inner.Eval(in)
}

func TestZeroOneCtxBackgroundMatchesPlain(t *testing.T) {
	n := 12
	sorter := transposition(n)
	ok, _, err := ZeroOneCtx(context.Background(), n, sorter, 0)
	if err != nil || !ok {
		t.Fatalf("sorter rejected: ok=%v err=%v", ok, err)
	}
	bad := transposition(n).Truncate(3)
	ok, w, err := ZeroOneCtx(context.Background(), n, bad, 0)
	if err != nil || ok {
		t.Fatalf("truncated network accepted: ok=%v err=%v", ok, err)
	}
	if IsSorted(bad.Eval(w)) {
		t.Fatalf("witness %v does not fail", w)
	}
}

func TestZeroOneCtxPreCanceledBits(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// *network.Network is Compilable, so this exercises the bit-sliced
	// scan's cancellation path.
	_, _, err := ZeroOneCtx(ctx, 16, transposition(16), 0)
	var ce *par.ErrCanceled
	if !errors.As(err, &ce) || ce.Op != "sortcheck.ZeroOne" {
		t.Fatalf("error = %v, want ErrCanceled{Op: sortcheck.ZeroOne}", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not unwrap to context.Canceled: %v", err)
	}
}

func TestZeroOneScalarCtxCancelMidScan(t *testing.T) {
	n := 20 // 2^20 masks: far more than the trip point
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ev := &slowEval{inner: transposition(n), trip: 4096, cancel: cancel}
	_, _, err := ZeroOneCtx(ctx, n, ev, 0)
	var ce *par.ErrCanceled
	if !errors.As(err, &ce) {
		t.Fatalf("mid-scan cancel lost: err = %v after %d evals", err, ev.calls.Load())
	}
	if ce.Op != "sortcheck.ZeroOneScalar" {
		t.Fatalf("Op = %q", ce.Op)
	}
	if ce.MasksChecked <= 0 || ce.MasksChecked >= 1<<n {
		t.Fatalf("MasksChecked = %d, want a proper partial count", ce.MasksChecked)
	}
	if ev.calls.Load() >= 1<<n {
		t.Fatalf("scan ran to completion (%d evals) despite cancel", ev.calls.Load())
	}
}

func TestZeroOneScalarCtxKeepsWitnessAcrossCancel(t *testing.T) {
	// A network that fails on many inputs: even a canceled scan that
	// found a witness before the cancel must surface it.
	n := 16
	bad := transposition(n).Truncate(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ev := &slowEval{inner: bad, trip: 2048, cancel: cancel}
	ok, w, _ := ZeroOneCtx(ctx, n, ev, 0)
	if ok {
		t.Fatal("broken network accepted")
	}
	if w != nil && IsSorted(bad.Eval(w)) {
		t.Fatalf("returned witness %v does not fail", w)
	}
}

func TestZeroOneFractionCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ZeroOneFraction(ctx, 16, transposition(16), 0)
	var ce *par.ErrCanceled
	if !errors.As(err, &ce) || ce.Op != "sortcheck.ZeroOneFraction" {
		t.Fatalf("error = %v, want ErrCanceled{Op: sortcheck.ZeroOneFraction}", err)
	}
}
