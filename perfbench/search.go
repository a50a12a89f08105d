package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"shufflenet/internal/core"
	"shufflenet/internal/network"
	"shufflenet/internal/obs"
	"shufflenet/internal/pattern"
	"shufflenet/internal/randnet"
)

// The search workload is the A3 family without HTTP: dense random
// circuits (randnet.Levels), the optimum search's measured worst case.
// The run cycles through the seeded set, so each circuit is solved
// several times, far apart in time; a circuit's time is its fastest
// repeat, which a burst of load from other tenants of the machine does
// not move.
const (
	searchWires    = 11
	searchDepth    = 8
	searchCircuits = 1024 // the seeded set, cycled through
	searchSetups   = 20
)

func searchSet(seed int64) []*network.Network {
	rng := rand.New(rand.NewSource(seed))
	set := make([]*network.Network, searchCircuits)
	for i := range set {
		set[i] = randnet.Levels(searchWires, searchDepth, rng)
	}
	return set
}

type solution struct {
	size    int
	pattern string
	set     []int
}

func (a solution) equal(b solution) bool {
	return a.size == b.size && a.pattern == b.pattern && slices.Equal(a.set, b.set)
}

func solve(c *network.Network, opt core.OptimalOptions) (solution, error) {
	size, p, set, err := core.OptimalNoncollidingOpt(context.Background(), c, opt)
	if err != nil {
		return solution{}, err
	}
	return solution{size, p.String(), set}, nil
}

// solveRecord is one circuit's cold solve (fresh table) and warm
// re-solve (against the table the cold solve filled).
type solveRecord struct {
	idx                  int
	cold, warm           time.Duration
	coldSol, warmSol     solution
	warmHits, warmProbes int64
}

// solveLoop cycles through the set until d has passed, and at least
// once through the whole set. With rec set, each circuit's calls are
// spans.
func solveLoop(set []*network.Network, d time.Duration, workers int, rec *recorder) ([]solveRecord, error) {
	var out []solveRecord
	start := time.Now()
	for i := 0; i < len(set) || time.Since(start) < d; i++ {
		r := solveRecord{idx: i % len(set)}
		c, req := set[r.idx], int64(i+1)
		var memo *core.Memo
		var err error
		t0 := time.Now()
		root := rec.add(0, req, "search.circuit", "bench", t0, t0)
		rec.timed(root, req, "core.memo.new", "core", func() { memo = core.NewMemo(core.AutoMemoBytes(searchWires)) })
		rec.timed(root, req, "core.optimal.cold", "core", func() {
			r.coldSol, err = solve(c, core.OptimalOptions{Workers: workers, Memo: memo})
		})
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		before := memo.Stats()
		rec.timed(root, req, "core.optimal.warm", "core", func() {
			r.warmSol, err = solve(c, core.OptimalOptions{Workers: workers, Memo: memo})
		})
		t2 := time.Now()
		if err != nil {
			return nil, err
		}
		after := memo.Stats()
		rec.close(root, t2)
		r.cold, r.warm = t1.Sub(t0), t2.Sub(t1)
		r.warmHits = after.Hits - before.Hits
		r.warmProbes = r.warmHits + after.Misses - before.Misses
		out = append(out, r)
	}
	return out, nil
}

// fastest returns, per circuit of the set, its fastest cold and warm
// solve over the records, in ms.
func fastest(recs []solveRecord, circuits int) (cold, warm []float64) {
	cold, warm = make([]float64, circuits), make([]float64, circuits)
	for _, r := range recs {
		c, w := ms(r.cold), ms(r.warm)
		if cold[r.idx] == 0 || c < cold[r.idx] {
			cold[r.idx] = c
		}
		if warm[r.idx] == 0 || w < warm[r.idx] {
			warm[r.idx] = w
		}
	}
	return cold, warm
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// checkSolves verifies every solve: warm equals cold, every solve of a
// circuit equals its first, the witness pattern is noncolliding with
// the reported set as its M0-set, and it equals a one-worker solve with
// its own table. It returns the number of wrong solves.
func checkSolves(set []*network.Network, recs []solveRecord) (wrong int64) {
	first := map[int]solution{}
	for _, r := range recs {
		bad := !r.warmSol.equal(r.coldSol)
		if f, ok := first[r.idx]; ok {
			bad = bad || !f.equal(r.coldSol)
		} else {
			first[r.idx] = r.coldSol
		}
		if bad {
			wrong++
		}
	}
	for idx, s := range first {
		c := set[idx]
		p, err := parsePattern(s.pattern, c.Wires())
		ok := err == nil && pattern.Noncolliding(c, p, pattern.M(0)) &&
			slices.Equal(p.Set(pattern.M(0)), s.set) && len(s.set) == s.size
		if ok {
			ref, err := solve(c, core.OptimalOptions{Workers: 1})
			ok = err == nil && ref.equal(s)
		}
		if !ok {
			wrong++
		}
	}
	return wrong
}

func runSearch(cfg config) (*report, error) {
	workers := runtime.GOMAXPROCS(0)
	var setups []float64
	var set []*network.Network
	for i := 0; i < searchSetups; i++ {
		t := time.Now()
		set = searchSet(cfg.seed)
		setups = append(setups, time.Since(t).Seconds())
	}
	if cfg.trace {
		return traceSearch(cfg, set, workers)
	}
	recs, err := solveLoop(set, cfg.dur, workers, nil)
	if err != nil {
		return nil, err
	}
	rss := maxRSSMB()
	cold, warm := fastest(recs, len(set))
	coldS := sum(cold) / 1e3
	wrong := checkSolves(set, recs)
	return &report{
		attempted: int64(len(recs)), failed: wrong, wrong: wrong,
		metrics: map[string]float64{
			"setup_s":    median(setups),
			"max_rss_mb": rss,
			"rps":        float64(len(set)) / coldS,
			"p50_ms":     percentile(cold, 0.50),
			"p99_ms":     percentile(cold, 0.99),
			"cold_s":     coldS,
			"warm_s":     sum(warm) / 1e3,
		},
		notes: map[string]any{
			"workers": workers, "cold_solves": len(recs), "passes": float64(len(recs)) / float64(len(set)),
			"beyond_p99": beyond(cold, 0.99),
			"circuits":   fmt.Sprintf("%d x randnet.Levels(n=%d, depth=%d)", searchCircuits, searchWires, searchDepth),
		},
	}, nil
}

// traceSearch runs the same sequence untraced, then traced, and
// reports the search's per-layer counters from the traced half.
func traceSearch(cfg config, set []*network.Network, workers int) (*report, error) {
	plain, err := solveLoop(set, cfg.dur/2, workers, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	before := obs.Default.Snapshot()
	traced, err := solveLoop(set, cfg.dur/2, workers, rec)
	if err != nil {
		return nil, err
	}
	after := obs.Default.Snapshot()
	diff := func(name string) float64 {
		a, _ := after[name].(int64)
		b, _ := before[name].(int64)
		return float64(a - b)
	}
	var busy time.Duration
	var hits, probes int64
	for _, r := range traced {
		busy += r.cold + r.warm
		hits += r.warmHits
		probes += r.warmProbes
	}
	plainCold, _ := fastest(plain, len(set))
	tracedCold, _ := fastest(traced, len(set))
	n := float64(len(traced))
	wrong := checkSolves(set, append(plain, traced...))
	rep := &report{
		attempted: int64(len(plain) + len(traced)), failed: wrong, wrong: wrong,
		metrics: map[string]float64{
			"core.optimal_us":             rec.medianUS("core.optimal.cold"),
			"core.optimal.nodes_per_s":    diff("core.optimal.nodes") / busy.Seconds(),
			"core.optimal.dominance_cuts": diff("core.optimal.dominance.cuts") / n,
			"core.memo.hit_ratio":         ratio(float64(hits), float64(probes)),
			"core.memo.evictions":         diff("core.optimal.memo.evictions") / n,
			"trace.overhead_pct":          overheadPct(sum(tracedCold), sum(plainCold)),
		},
		notes: map[string]any{"workers": workers, "plain_solves": len(plain), "traced_solves": len(traced)},
	}
	if err := rec.finish(cfg, rep.notes); err != nil {
		return nil, err
	}
	return rep, nil
}
