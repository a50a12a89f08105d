package experiments

import (
	"math/rand"

	"shufflenet/internal/bits"
	"shufflenet/internal/core"
	"shufflenet/internal/delta"
	"shufflenet/internal/perm"
)

// A1KSweep is an ablation, not a paper claim: it sweeps the averaging
// parameter k of Lemma 4.1 to show the tradeoff the paper resolves by
// choosing k = lg n. Small k gives few averaging offsets (k² of them),
// so collisions are harder to dodge and more wires are lost per block;
// large k gives t(l) = k³ + lk² sets, so survivors fragment and the
// largest set — the quantity Theorem 4.1 chains on — shrinks, while
// costing more memory. The sweep runs the full adversary on a fixed
// random iterated RDN (same network for every k) and also measures how
// many blocks each k survives.
//
// (On the perfectly regular butterfly the sweep is flat — meetings
// concentrate on offset 0 and every k ≥ 2 dodges them with i₀ = 1;
// random topologies spread meetings across offsets and expose the
// tradeoff, which is why they are used here.)
func A1KSweep(cfg Config) *Table {
	t := &Table{
		ID:    "A1",
		Title: "Ablation: Lemma 4.1 averaging parameter k (random RDN stack)",
		Claim: "design choice, not a theorem: k = lg n balances per-block loss (l/k²) against set fragmentation (t(l) = k³+lk²)",
		Columns: []string{
			"n", "k", "t(l)", "|D| after 3 blocks", "blocks survived",
		},
	}
	sizes := []int{256, 1024}
	if cfg.Quick {
		sizes = []int{256}
	}
	// The fixed networks per n come from per-n derived streams (as
	// before), so they can be built up front; the (n, k) cells are then
	// pure measurements over shared read-only inputs and run in
	// parallel, byte-identically to the sequential sweep.
	type blk struct {
		pre  perm.Perm
		tree *delta.Network
	}
	type a1cell struct {
		n, l, k   int
		maxBlocks int
		it        *delta.Iterated
		stack     []blk
	}
	var cells []a1cell
	for _, n := range sizes {
		l := bits.Lg(n)
		// One fixed 3-block network per n, reused across all k.
		rng := rand.New(rand.NewSource(cfg.Seed + int64(n)))
		it := delta.NewIterated(n)
		for b := 0; b < 3; b++ {
			it.AddBlock(perm.Random(n, rng), delta.Random(l, 1.0, rng))
		}
		// And one fixed long stack for the survival-depth column.
		blockRNG := rand.New(rand.NewSource(cfg.Seed + 7*int64(n)))
		maxBlocks := 8 * l
		if cfg.Quick {
			maxBlocks = 3 * l
		}
		stack := make([]blk, maxBlocks)
		for b := range stack {
			stack[b] = blk{perm.Random(n, blockRNG), delta.Random(l, 1.0, blockRNG)}
		}
		for _, k := range dedupeInts([]int{2, 3, l / 2, l, 2 * l, 4 * l}) {
			if k < 2 {
				continue
			}
			cells = append(cells, a1cell{n: n, l: l, k: k, maxBlocks: maxBlocks, it: it, stack: stack})
		}
	}
	if !runCells(cfg, t, len(cells), func(i int) cellRow {
		c := cells[i]
		an, err := core.Theorem41Ctx(cfg.Context(), c.it, c.k)
		if err != nil {
			return cellRow{err: err}
		}
		tl := c.k*c.k*c.k + c.l*c.k*c.k

		inc := core.NewIncremental(c.n, c.k)
		blocks := 0
		for _, b := range c.stack {
			if _, err := inc.AddBlock(cfg.Context(), b.pre, delta.NewForest(b.tree)); err != nil {
				return cellRow{err: err}
			}
			if len(inc.D()) < 2 {
				break
			}
			blocks++
		}
		survived := trimFloat(float64(blocks))
		if blocks == c.maxBlocks {
			survived = ">=" + survived
		}
		return row(c.n, c.k, tl, len(an.D), survived)
	}) {
		return t
	}
	t.Note("same fixed networks for every k; |D| = largest noncolliding set after 3 blocks; blocks survived = prefix depth with |D| >= 2 on a longer fixed stack")
	t.Note("reading: at these n the measured optimum INVERTS the asymptotic story — small k keeps the collection concentrated (fewer, larger sets) and survives longest, while the l/k² loss term it pays is still tiny; the fragmentation penalty that makes k = lg n optimal is an asymptotic effect")
	return t
}
