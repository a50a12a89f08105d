package par

import (
	"context"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if Workers(10, 4) != 4 {
		t.Error("requested workers not honored")
	}
	if Workers(2, 100) != 2 {
		t.Error("workers not capped by n")
	}
	if Workers(100, 0) < 1 {
		t.Error("default workers < 1")
	}
	if Workers(0, 0) != 1 {
		t.Error("empty range should still report 1 worker")
	}
}

func TestForEachCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, DefaultGrain - 1, DefaultGrain, 3*DefaultGrain + 5} {
		counts := make([]int32, n)
		ForEach(context.Background(), n, 0, DefaultGrain, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForEachWorkerCounts(t *testing.T) {
	const n = 3 * DefaultGrain
	for _, w := range []int{1, 2, 3, 16, 1000} {
		var sum int64
		ForEach(context.Background(), n, w, DefaultGrain, func(i int) { atomic.AddInt64(&sum, int64(i)) })
		want := int64(n) * int64(n-1) / 2
		if sum != want {
			t.Fatalf("workers=%d: sum=%d want %d", w, sum, want)
		}
	}
}

func TestForEachChunkPartitions(t *testing.T) {
	for _, n := range []int{0, 1, 10, 1000} {
		for _, w := range []int{1, 3, 7} {
			covered := make([]int32, n)
			ForEachChunk(context.Background(), n, w, DefaultGrain, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&covered[i], 1)
				}
			})
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d w=%d: index %d covered %d times", n, w, i, c)
				}
			}
		}
	}
}

func TestFindSmallestHit(t *testing.T) {
	const n = 4 * DefaultGrain
	targets := []int{0, 1, DefaultGrain + 3, n - 1}
	for _, target := range targets {
		got, _ := Find(context.Background(), n, 8, func(i int) bool { return i >= target })
		if got != target {
			t.Errorf("Find returned %d, want %d", got, target)
		}
	}
}

func TestFindNoHit(t *testing.T) {
	if got, _ := Find(context.Background(), 4*DefaultGrain, 8, func(i int) bool { return false }); got != -1 {
		t.Errorf("Find returned %d on no-hit input", got)
	}
	if got, _ := Find(context.Background(), 0, 8, func(i int) bool { return true }); got != -1 {
		t.Errorf("Find on empty range returned %d", got)
	}
}

func TestFindSequentialSmall(t *testing.T) {
	if got, _ := Find(context.Background(), 10, 1, func(i int) bool { return i == 7 }); got != 7 {
		t.Errorf("sequential Find = %d", got)
	}
}

func TestSumInt64(t *testing.T) {
	for _, n := range []int{0, 1, 100, 3 * DefaultGrain} {
		for _, w := range []int{1, 4} {
			got, _ := SumInt64(context.Background(), n, w, func(i int) int64 { return int64(i) })
			want := int64(n) * int64(n-1) / 2
			if got != want {
				t.Fatalf("SumInt64(n=%d,w=%d) = %d, want %d", n, w, got, want)
			}
		}
	}
}

func TestForEachGrain(t *testing.T) {
	for _, n := range []int{0, 1, 100, 3000} {
		for _, grain := range []int{1, 64, 5000} {
			var hits = make([]int32, n)
			ForEach(context.Background(), n, 4, grain, func(i int) {
				atomic.AddInt32(&hits[i], 1)
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d grain=%d: index %d visited %d times", n, grain, i, h)
				}
			}
		}
	}
}

// TestForEachChunkSmallRangeSequential pins the grain fallback: a tiny
// range must run as exactly one body(0, n) call on the calling
// goroutine instead of fanning out one goroutine per item (the
// historical bug: a 2-element range spawned up to GOMAXPROCS
// goroutines).
func TestForEachChunkSmallRangeSequential(t *testing.T) {
	for _, n := range []int{1, 2, 10, DefaultGrain - 1} {
		var calls [][2]int
		ForEachChunk(context.Background(), n, 8, DefaultGrain, func(lo, hi int) {
			// No synchronization on purpose: if this ever runs on more
			// than one goroutine, the race detector flags it.
			calls = append(calls, [2]int{lo, hi})
		})
		if len(calls) != 1 || calls[0] != [2]int{0, n} {
			t.Fatalf("n=%d: want one sequential chunk [0,%d), got %v", n, n, calls)
		}
	}
}

// TestForEachChunkGrainKeepsParallelism verifies the explicit-grain
// escape hatch: few-but-heavy chunks (grain 1) still partition across
// workers.
func TestForEachChunkGrainKeepsParallelism(t *testing.T) {
	const n = 4
	covered := make([]int32, n)
	var chunks int32
	ForEachChunk(context.Background(), n, n, 1, func(lo, hi int) {
		atomic.AddInt32(&chunks, 1)
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	if chunks != n {
		t.Fatalf("grain=1: want %d chunks, got %d", n, chunks)
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("index %d covered %d times", i, c)
		}
	}
}

// TestCtxVariantsMatchPlainOnBackground: every loop returns the same
// results under a Background context and under a live cancelable one,
// which re-splits each worker range into probed pieces.
func TestCtxVariantsMatchPlainOnBackground(t *testing.T) {
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 3*DefaultGrain + 7
	for _, ctx := range []context.Context{context.Background(), live} {
		var sum int64
		if err := ForEach(ctx, n, 4, DefaultGrain, func(i int) { atomic.AddInt64(&sum, int64(i)) }); err != nil {
			t.Fatal(err)
		}
		if want := int64(n) * int64(n-1) / 2; sum != want {
			t.Fatalf("ForEach sum = %d, want %d", sum, want)
		}
		got, err := Find(ctx, n, 4, func(i int) bool { return i >= DefaultGrain })
		if err != nil || got != DefaultGrain {
			t.Fatalf("Find = (%d, %v)", got, err)
		}
		s, err := SumInt64(ctx, n, 4, func(i int) int64 { return 1 })
		if err != nil || s != int64(n) {
			t.Fatalf("SumInt64 = (%d, %v)", s, err)
		}
		covered := make([]int32, n)
		if err := ForEachChunk(ctx, n, 4, DefaultGrain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("ForEachChunk: index %d covered %d times", i, c)
			}
		}
	}
}

func TestCtxVariantsCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int64
	body := func(i int) { atomic.AddInt64(&ran, 1) }
	if err := ForEach(ctx, 4*DefaultGrain, 4, DefaultGrain, body); err != context.Canceled {
		t.Fatalf("ForEach err = %v", err)
	}
	if err := ForEachChunk(ctx, 4*DefaultGrain, 4, DefaultGrain, func(lo, hi int) { atomic.AddInt64(&ran, int64(hi-lo)) }); err != context.Canceled {
		t.Fatalf("ForEachChunk err = %v", err)
	}
	if i, err := Find(ctx, 4*DefaultGrain, 4, func(i int) bool { atomic.AddInt64(&ran, 1); return false }); err != context.Canceled || i != -1 {
		t.Fatalf("Find = (%d, %v)", i, err)
	}
	if s, err := SumInt64(ctx, 4*DefaultGrain, 4, func(i int) int64 { atomic.AddInt64(&ran, 1); return 1 }); err != context.Canceled || s != 0 {
		t.Fatalf("SumInt64 = (%d, %v)", s, err)
	}
	if ran != 0 {
		t.Fatalf("canceled context still ran %d items", ran)
	}
}

// TestForEachCtxCancelPrompt is the promptness contract: after cancel,
// each worker finishes at most the grain-sized piece it is in and
// abandons the rest, so the residual work is under two chunks per
// worker (satellite requirement; runs under -race in make check-ctx).
func TestForEachCtxCancelPrompt(t *testing.T) {
	const (
		workers = 4
		grain   = 32
		n       = 1 << 16
	)
	ctx, cancel := context.WithCancel(context.Background())
	var processed int64
	err := ForEach(ctx, n, workers, grain, func(i int) {
		if atomic.AddInt64(&processed, 1) == 1 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Each worker was at most mid-piece when the cancel landed and may
	// start at most one more piece before its next probe observes it.
	limit := int64(2 * workers * grain)
	if got := atomic.LoadInt64(&processed); got > limit {
		t.Fatalf("processed %d items after cancel, want <= %d (<2 chunks/worker)", got, limit)
	}
}

// TestFindCtxCancelPrompt: same promptness contract for the early-exit
// search (probe stride is DefaultGrain there).
func TestFindCtxCancelPrompt(t *testing.T) {
	const (
		workers = 4
		n       = 1 << 20
	)
	ctx, cancel := context.WithCancel(context.Background())
	var processed int64
	got, err := Find(ctx, n, workers, func(i int) bool {
		if atomic.AddInt64(&processed, 1) == 1 {
			cancel()
		}
		return false
	})
	if err != context.Canceled || got != -1 {
		t.Fatalf("Find = (%d, %v), want (-1, context.Canceled)", got, err)
	}
	limit := int64(2 * workers * DefaultGrain)
	if p := atomic.LoadInt64(&processed); p > limit {
		t.Fatalf("processed %d candidates after cancel, want <= %d (<2 chunks/worker)", p, limit)
	}
}

// TestFindCtxCancelKeepsHit: a hit found before the cancel is still
// returned (partial result), alongside the error.
func TestFindCtxCancelKeepsHit(t *testing.T) {
	const n = 1 << 18
	ctx, cancel := context.WithCancel(context.Background())
	got, err := Find(ctx, n, 4, func(i int) bool {
		if i == 3 {
			cancel()
			return true
		}
		return false
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got < 0 {
		t.Skip("cancel observed before the hit was recorded (legal schedule)")
	}
	if got != 3 {
		t.Fatalf("hit = %d, want 3", got)
	}
}

// TestForEachChunkCtxCanceledAfterLastPiece: a context that ends after
// every piece has run cuts nothing short, so the parallel loops report
// no error. Each of two workers gets one piece, and the last index to
// run cancels the context.
func TestForEachChunkCtxCanceledAfterLastPiece(t *testing.T) {
	const n = 2 * DefaultGrain
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var seen atomic.Int64
	err := ForEachChunk(ctx, n, 2, DefaultGrain, func(lo, hi int) {
		if seen.Add(int64(hi-lo)) == n {
			cancel()
		}
	})
	if err != nil || seen.Load() != n {
		t.Fatalf("err = %v after %d of %d indices, want nil after all", err, seen.Load(), n)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	seen.Store(0)
	err = ForEach(ctx, n, 2, DefaultGrain, func(int) {
		if seen.Add(1) == n {
			cancel()
		}
	})
	if err != nil || seen.Load() != n {
		t.Fatalf("ForEach: err = %v after %d of %d indices, want nil after all", err, seen.Load(), n)
	}
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	seen.Store(0)
	sum, err := SumInt64(ctx, n, 2, func(int) int64 {
		if seen.Add(1) == n {
			cancel()
		}
		return 1
	})
	if err != nil || sum != n {
		t.Fatalf("SumInt64: (%d, %v), want (%d, nil)", sum, err, n)
	}
}
