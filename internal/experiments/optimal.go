package experiments

import (
	"math/rand"
	"time"

	"shufflenet/internal/bits"
	"shufflenet/internal/core"
	"shufflenet/internal/delta"
	"shufflenet/internal/network"
	"shufflenet/internal/perm"
	"shufflenet/internal/randnet"
)

// optimalSearch builds the search options the optimum experiments
// share: one transposition table across all of an experiment's cells
// (keys are salted per network, so sharing is sound), sized by
// cfg.MemoBytes (0 = a 32 MiB default, negative = off). The table is
// pure acceleration — every cell's row is byte-identical with it on,
// off, or at any size.
func optimalSearch(cfg Config) core.OptimalOptions {
	if cfg.MemoBytes < 0 {
		return core.OptimalOptions{Workers: cfg.Workers, NoMemo: true, Progress: cfg.Progress}
	}
	bytes := cfg.MemoBytes
	if bytes == 0 {
		bytes = 32 << 20
	}
	return core.OptimalOptions{Workers: cfg.Workers, Memo: core.NewMemo(bytes), Progress: cfg.Progress}
}

// noteMemo appends the table's cumulative counters to the (timing,
// non-byte-stable) note section.
func noteMemo(t *Table, opt core.OptimalOptions) {
	if opt.Memo == nil {
		t.Note("transposition table: off")
		return
	}
	ms := opt.Memo.Stats()
	t.Note("transposition table: %d bytes shared across cells; %d hits / %d misses / %d stores / %d evictions",
		ms.Bytes, ms.Hits, ms.Misses, ms.Stores, ms.Evictions)
}

// A2Optimality is an ablation: it compares the constructive adversary's
// surviving set |D| against the brute-force optimum over all 3^n
// patterns (core.OptimalNoncollidingOpt) on small networks. The ratio
// measures the per-instance slack of the paper's averaging argument —
// the analysis guarantees polylog decay, but how much does the
// construction actually leave on the table?
func A2Optimality(cfg Config) *Table {
	t := &Table{
		ID:    "A2",
		Title: "Ablation: constructive adversary vs. brute-force optimum",
		Claim: "design-space study: Lemma/Theorem 4.1's |D| against the best noncolliding [M_0]-set any pattern admits (exhaustive over 3^n patterns)",
		Columns: []string{
			"network", "n", "blocks", "adversary |D|", "optimal |D|", "ratio",
		},
	}
	sizes := []int{8, 16}
	if cfg.Quick {
		sizes = []int{8}
	}
	// The scenario networks are built up front in the sequential order
	// (preserving the shared stream's draws), then measured as parallel
	// cells; the branch-and-bound inside each cell fans out further.
	type a2cell struct {
		name   string
		n      int
		blocks int
		it     *delta.Iterated
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var cells []a2cell
	for _, n := range sizes {
		l := bits.Lg(n)
		cells = append(cells, a2cell{"butterfly", n, 1,
			delta.NewIterated(n).AddBlock(nil, delta.Butterfly(l))})
		cells = append(cells, a2cell{"random", n, 1,
			delta.NewIterated(n).AddBlock(nil, delta.Random(l, 1.0, rng))})
		it := delta.NewIterated(n).AddBlock(nil, delta.Butterfly(l))
		cells = append(cells, a2cell{"butterfly×2", n, 2,
			it.AddBlock(perm.Random(n, rng), delta.Butterfly(l))})
	}
	searchOpt := optimalSearch(cfg)
	searchNanos := make([]int64, len(cells))
	if !runCells(cfg, t, len(cells), func(i int) cellRow {
		c := cells[i]
		an, err := core.Theorem41Ctx(cfg.Context(), c.it, 0)
		if err != nil {
			return cellRow{err: err}
		}
		circ, _ := c.it.ToNetwork()
		start := time.Now()
		opt, _, _, err := core.OptimalNoncollidingOpt(cfg.Context(), circ, searchOpt)
		if err != nil {
			return cellRow{err: err}
		}
		searchNanos[i] = time.Since(start).Nanoseconds()
		ratio := 0.0
		if opt > 0 {
			ratio = float64(len(an.D)) / float64(opt)
		}
		return row(c.name, c.n, c.blocks, len(an.D), opt, ratio)
	}) {
		return t
	}
	t.Note("optimal = max |[M_0]| over every {S0,M0,L0}-pattern whose M-set is noncolliding (brute force; the best any adversary in the paper's framework can do on the instance)")
	t.Note("the adversary must also be *constructive across blocks*, so ratios below 1 on multi-block stacks reflect both the averaging slack and the keep-one-set policy of Theorem 4.1")
	total := int64(0)
	for _, ns := range searchNanos {
		total += ns
	}
	// Timing lines last, so everything above is byte-stable per seed.
	t.Note("timing: optimal search took %.3fs total across %d instances (branch-and-bound, exact)",
		float64(total)/1e9, len(cells))
	noteMemo(t, searchOpt)
	return t
}

// A3OptimumCap drives the exact optimum search to the engine's
// symmetry-reduced cap (core.MaxOptimalWires = 26) on its measured
// worst case: dense random level circuits (randnet.Levels — uniformly
// random perfect matchings with random directions, so the
// automorphism group is almost surely trivial and every pruning rule
// has to earn its keep). The engine's cap has moved 20 → 24 → 26 as
// pruning, symmetry reduction, and now the durable sharded frontier
// (PR 9) landed; these rows are the evidence for the cap and for the
// EXPERIMENTS.md timings. Rows are byte-stable per seed; the
// per-instance timings go in the notes.
func A3OptimumCap(cfg Config) *Table {
	t := &Table{
		ID:    "A3",
		Title: "Optimum search at the symmetry-reduced cap (dense random circuits)",
		Claim: "engineering claim, not a paper claim: the pruned branch-and-bound (canonical memo + dominance + capacity + lex incumbent, resumable and shardable since PR 9) reaches n = 26 on its worst-case family",
		Columns: []string{
			"n", "levels", "comparators", "optimal |D|", "|D|/n",
		},
	}
	type a3case struct{ n, depth int }
	cases := []a3case{{18, 10}, {20, 10}, {22, 10}, {24, 6}, {26, 6}}
	if cfg.Quick {
		cases = []a3case{{12, 8}, {14, 8}}
	}
	// Instances are drawn sequentially from the shared stream so the
	// table is byte-stable per seed, then measured as parallel cells.
	rng := rand.New(rand.NewSource(cfg.Seed))
	circs := make([]*network.Network, len(cases))
	for i, c := range cases {
		circs[i] = randnet.Levels(c.n, c.depth, rng)
	}
	searchOpt := optimalSearch(cfg)
	searchNanos := make([]int64, len(cases))
	if !runCells(cfg, t, len(cases), func(i int) cellRow {
		c := cases[i]
		start := time.Now()
		opt, _, _, err := core.OptimalNoncollidingOpt(cfg.Context(), circs[i], searchOpt)
		if err != nil {
			return cellRow{err: err}
		}
		searchNanos[i] = time.Since(start).Nanoseconds()
		return row(c.n, c.depth, circs[i].Size(), opt, float64(opt)/float64(c.n))
	}) {
		return t
	}
	t.Note("optimal = max |[M_0]| over every {S0,M0,L0}-pattern whose M-set is noncolliding, exact; dense random circuits keep it near lg n — far below the butterfly's n/2 — which is why they are the branch-and-bound's worst case")
	for i, c := range cases {
		t.Note("timing: n=%d levels=%d took %.3fs", c.n, c.depth, float64(searchNanos[i])/1e9)
	}
	noteMemo(t, searchOpt)
	return t
}
