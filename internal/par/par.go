// Package par provides the small parallel-execution runtime used by the
// evaluators and checkers in shufflenet: chunked parallel loops over
// index ranges and an early-exit parallel search.
//
// All functions degrade gracefully to sequential execution for small
// inputs, so callers can use them unconditionally. Worker counts default
// to GOMAXPROCS and are capped by the work available.
//
// Every loop takes a context and observes cancellation once per chunk —
// never per item — so the hot inner loops pay nothing: with a
// non-cancelable context (ctx.Done() == nil, e.g. context.Background())
// the probe compiles down to a nil check and each worker runs its whole
// range without re-splitting it. On cancellation the loops return the
// context's error; workers abandon un-started chunks but finish the
// chunk they are in, so the residual work after a cancel is bounded by
// one chunk per worker.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"shufflenet/internal/obs"
)

// DefaultGrain is the smallest range worth splitting across goroutines
// when the per-item cost is small; below it the scheduling overhead
// dominates. It doubles as the cancellation-probe stride: a cancelable
// loop checks its context every DefaultGrain items. Find and SumInt64
// always use it.
const DefaultGrain = 2048

// Runtime metrics: one or two atomic adds per parallel *invocation*
// plus one add/sub pair per worker *goroutine* (never per item), so the
// loops themselves stay untouched. The workers.last gauge records the
// fan-out of the most recent parallel invocation; workers.active counts
// goroutines currently inside a parallel region, so a live-telemetry
// sample of it reads as instantaneous occupancy.
var (
	metChunks     = obs.C("par.chunks")
	metSequential = obs.C("par.sequential")
	metItems      = obs.C("par.items")
	metCanceled   = obs.C("par.canceled")
	metWorkers    = obs.G("par.workers.last")
	metActive     = obs.G("par.workers.active")
)

// workerEnter/workerExit bracket each worker goroutine's life for the
// occupancy gauge.
func workerEnter() { metActive.Add(1) }
func workerExit()  { metActive.Add(-1) }

// Workers returns the effective worker count for a range of size n given
// a requested count (0 means GOMAXPROCS). The result is at least 1 and
// at most n.
func Workers(n, requested int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// canceled is the once-per-chunk cancellation probe: a single
// non-blocking channel receive when the context is cancelable, and a
// nil check compiled to nothing when it is not (done == nil for
// context.Background and context.TODO).
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// ForEach invokes body(i) for every i in [0, n), splitting the range into
// contiguous chunks across up to workers goroutines (0 = GOMAXPROCS).
// body must be safe for concurrent invocation on distinct indices.
// Ranges smaller than grain run sequentially, since below it goroutine
// scheduling costs more than the work: callers with trivial bodies pass
// DefaultGrain, callers with expensive bodies a small grain (>= 1) to
// force parallelism on short ranges. Cancellation is probed once per
// grain-sized piece of each worker's range; ForEach returns ctx.Err()
// when the run was cut short (some indices unvisited), nil when every
// index was visited.
func ForEach(ctx context.Context, n, workers, grain int, body func(i int)) error {
	done := ctx.Done()
	if n <= 0 {
		return nil
	}
	if grain < 1 {
		grain = 1
	}
	w := Workers(n, workers)
	metItems.Add(int64(n))
	if w == 1 || n < grain {
		metSequential.Inc()
		for lo := 0; lo < n; lo += grain {
			if canceled(done) {
				metCanceled.Inc()
				return ctx.Err()
			}
			hi := min(lo+grain, n)
			for i := lo; i < hi; i++ {
				body(i)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	metChunks.Add(int64((n + chunk - 1) / chunk))
	metWorkers.Set(int64(w))
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			workerEnter()
			defer workerExit()
			for ; lo < hi; lo += grain {
				if canceled(done) {
					return
				}
				stop := min(lo+grain, hi)
				for i := lo; i < stop; i++ {
					body(i)
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	if canceled(done) {
		metCanceled.Inc()
		return ctx.Err()
	}
	return nil
}

// ForEachChunk invokes body(lo, hi) for a partition of [0, n) into
// contiguous half-open chunks. Use this instead of ForEach when the
// body benefits from per-chunk state (e.g. scratch buffers). Ranges
// smaller than grain run on the calling goroutine; callers whose chunks
// are individually expensive (e.g. per-slot Monte-Carlo batches) pass a
// small grain to keep parallelism on short ranges.
//
// With a non-cancelable context (ctx.Done() == nil) the layout is one
// body call per worker range, or a single body(0, n) call below grain.
// With a cancelable context each range is re-split into grain-sized
// pieces with a probe before each piece, so body runs O(n/grain) times;
// bodies that amortize per-chunk state (scratch buffers, batched metric
// flushes) amortize it over a piece instead of a worker range, which
// costs nothing measurable at DefaultGrain. Returns ctx.Err() when
// chunks were abandoned.
func ForEachChunk(ctx context.Context, n, workers, grain int, body func(lo, hi int)) error {
	done := ctx.Done()
	if n <= 0 {
		return nil
	}
	if grain < 1 {
		grain = 1
	}
	w := Workers(n, workers)
	metItems.Add(int64(n))
	if w == 1 || n < grain {
		metSequential.Inc()
		if done == nil {
			body(0, n)
			return nil
		}
		for lo := 0; lo < n; lo += grain {
			if canceled(done) {
				metCanceled.Inc()
				return ctx.Err()
			}
			body(lo, min(lo+grain, n))
		}
		return nil
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	metChunks.Add(int64((n + chunk - 1) / chunk))
	metWorkers.Set(int64(w))
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			workerEnter()
			defer workerExit()
			if done == nil {
				body(lo, hi)
				return
			}
			for ; lo < hi; lo += grain {
				if canceled(done) {
					return
				}
				body(lo, min(lo+grain, hi))
			}
		}(lo, hi)
	}
	wg.Wait()
	if canceled(done) {
		metCanceled.Inc()
		return ctx.Err()
	}
	return nil
}

// Find searches [0, n) in parallel for an index satisfying pred and
// returns the smallest satisfying index found, or -1 if none satisfies
// pred. Workers abandon chunks that can no longer contain a smaller hit,
// so Find is effective for needle-in-haystack searches such as locating
// the first unsorted 0-1 input of a network. Cancellation is probed
// once per DefaultGrain candidates; on cancellation Find returns the
// smallest hit observed so far (or -1) together with ctx.Err(). That
// index still satisfies pred but is no longer guaranteed minimal, since
// chunks below it may have been abandoned.
func Find(ctx context.Context, n, workers int, pred func(i int) bool) (int, error) {
	done := ctx.Done()
	if n <= 0 {
		return -1, nil
	}
	w := Workers(n, workers)
	metItems.Add(int64(n))
	if w == 1 || n < DefaultGrain {
		metSequential.Inc()
		for lo := 0; lo < n; lo += DefaultGrain {
			if canceled(done) {
				metCanceled.Inc()
				return -1, ctx.Err()
			}
			hi := min(lo+DefaultGrain, n)
			for i := lo; i < hi; i++ {
				if pred(i) {
					return i, nil
				}
			}
		}
		return -1, nil
	}
	best := int64(n)
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	metChunks.Add(int64((n + chunk - 1) / chunk))
	metWorkers.Set(int64(w))
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			workerEnter()
			defer workerExit()
			for ; lo < hi; lo += DefaultGrain {
				if canceled(done) {
					return
				}
				stop := min(lo+DefaultGrain, hi)
				for i := lo; i < stop; i++ {
					if int64(i) >= atomic.LoadInt64(&best) {
						return // a smaller index already found
					}
					if pred(i) {
						for {
							cur := atomic.LoadInt64(&best)
							if int64(i) >= cur || atomic.CompareAndSwapInt64(&best, cur, int64(i)) {
								break
							}
						}
						return
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	hit := atomic.LoadInt64(&best)
	if canceled(done) {
		metCanceled.Inc()
		if hit < int64(n) {
			return int(hit), ctx.Err()
		}
		return -1, ctx.Err()
	}
	if hit == int64(n) {
		return -1, nil
	}
	return int(hit), nil
}

// SumInt64 computes sum over i in [0, n) of f(i) in parallel.
// Cancellation is probed once per DefaultGrain items; on cancellation
// SumInt64 returns the partial sum accumulated so far (an undercount)
// together with ctx.Err().
func SumInt64(ctx context.Context, n, workers int, f func(i int) int64) (int64, error) {
	done := ctx.Done()
	if n <= 0 {
		return 0, nil
	}
	w := Workers(n, workers)
	metItems.Add(int64(n))
	if w == 1 || n < DefaultGrain {
		metSequential.Inc()
		var s int64
		for lo := 0; lo < n; lo += DefaultGrain {
			if canceled(done) {
				metCanceled.Inc()
				return s, ctx.Err()
			}
			hi := min(lo+DefaultGrain, n)
			for i := lo; i < hi; i++ {
				s += f(i)
			}
		}
		return s, nil
	}
	partial := make([]int64, w)
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	metChunks.Add(int64((n + chunk - 1) / chunk))
	metWorkers.Set(int64(w))
	slot := 0
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(slot, lo, hi int) {
			defer wg.Done()
			workerEnter()
			defer workerExit()
			var s int64
			for ; lo < hi; lo += DefaultGrain {
				if canceled(done) {
					break
				}
				stop := min(lo+DefaultGrain, hi)
				for i := lo; i < stop; i++ {
					s += f(i)
				}
			}
			partial[slot] = s
		}(slot, lo, hi)
		slot++
	}
	wg.Wait()
	var total int64
	for _, s := range partial {
		total += s
	}
	if canceled(done) {
		metCanceled.Inc()
		return total, ctx.Err()
	}
	return total, nil
}
