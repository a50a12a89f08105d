package experiments

import (
	"math"
	"math/rand"

	"shufflenet/internal/bits"
	"shufflenet/internal/core"
	"shufflenet/internal/delta"
	"shufflenet/internal/obs"
	"shufflenet/internal/pattern"
	"shufflenet/internal/perm"
)

// E2LemmaSurvival measures the constructive Lemma 4.1 on single reverse
// delta blocks: the fraction of the tracked set that survives across
// the t(l) noncolliding sets, against the guaranteed 1 − l/k².
func E2LemmaSurvival(cfg Config) *Table {
	t := &Table{
		ID:    "E2",
		Title: "Lemma 4.1: survival through one reverse delta block",
		Claim: "|B| >= |A|(1 − l/k²) across t(l) = k³+lk² noncolliding sets; k = lg n",
		Columns: []string{
			"topology", "n", "l=k", "t(l)", "|A|", "|B|", "measured frac", "bound frac", "largest set",
		},
	}
	sizes := []int{16, 64, 256, 1024, 4096, 16384}
	if cfg.Quick {
		sizes = []int{16, 64, 256}
	}
	// Pre-draw the random topologies in the sequential row order, so the
	// shared stream yields the same trees as before; the rows themselves
	// are then independent and run as parallel cells.
	type e2cell struct {
		topo string
		n, l int
		tree *delta.Network
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var cells []e2cell
	for _, n := range sizes {
		l := bits.Lg(n)
		for _, topo := range []string{"butterfly", "random"} {
			tree := delta.Butterfly(l)
			if topo == "random" {
				tree = delta.Random(l, 1.0, rng)
			}
			cells = append(cells, e2cell{topo: topo, n: n, l: l, tree: tree})
		}
	}
	if !runCells(cfg, t, len(cells), func(i int) cellRow {
		c := cells[i]
		sp := cfg.Phase("lemma41", obs.A("n", c.n), obs.A("topo", c.topo))
		defer sp.End()
		p := pattern.Uniform(c.n, pattern.M(0))
		res, err := core.Lemma41(cfg.Context(), c.tree, p, c.l)
		if err != nil {
			return cellRow{err: err}
		}
		_, largest := res.LargestSet()
		sp.SetAttr("survivors", res.Survivors)
		sp.SetAttr("collisions", res.Collisions)
		return row(c.topo, c.n, c.l, res.T, res.Initial, res.Survivors,
			float64(res.Survivors)/float64(res.Initial),
			1.0-float64(c.l)/float64(c.l*c.l),
			len(largest),
		)
	}) {
		return t
	}
	t.Note("measured frac must dominate bound frac (asserted in code); the slack shows the analysis is conservative")
	return t
}

// E3IteratedSurvival measures Theorem 4.1: the size |D| of the
// noncolliding set maintained across d consecutive full-width blocks,
// against the guaranteed n / lg^{4d} n.
func E3IteratedSurvival(cfg Config) *Table {
	t := &Table{
		ID:    "E3",
		Title: "Theorem 4.1: |D| across d iterated reverse delta blocks",
		Claim: "|D| >= n / lg^{4d} n after d blocks (k = lg n), for every inter-block permutation",
		Columns: []string{
			"n", "d", "|D| measured", "paper bound", "survivors", "chosen set",
		},
	}
	sizes := []int{64, 256, 1024, 4096}
	if cfg.Quick {
		sizes = []int{64, 256}
	}
	dMax := 6
	if cfg.Quick {
		dMax = 4
	}
	// Pre-draw the inter-block permutations in the sequential order, so
	// the shared stream yields the same networks as before; each n is
	// then an independent parallel cell. (A seed whose adversary
	// collapses before dMax would have skipped its remaining draws under
	// the old interleaving and can shift later trees; seeds that ran the
	// full sweep — including the recorded seed 1 — are byte-identical.)
	rng := rand.New(rand.NewSource(cfg.Seed))
	pres := make([][]perm.Perm, len(sizes))
	for si, n := range sizes {
		pres[si] = make([]perm.Perm, dMax+1)
		for d := 2; d <= dMax; d++ {
			pres[si][d] = perm.Random(n, rng)
		}
	}
	if !runCells(cfg, t, len(sizes), func(si int) cellRow {
		n := sizes[si]
		l := bits.Lg(n)
		it := delta.NewIterated(n)
		var out cellRow
		for d := 1; d <= dMax; d++ {
			sp := cfg.Phase("theorem41", obs.A("n", n), obs.A("d", d))
			it.AddBlock(pres[si][d], delta.Butterfly(l))
			an, err := core.Theorem41Ctx(cfg.Context(), it, 0)
			if err != nil {
				sp.End()
				out.err = err
				return out
			}
			rep := an.Reports[len(an.Reports)-1]
			sp.SetAttr("D", len(an.D))
			sp.End()
			out.cells = append(out.cells, []interface{}{
				n, d, len(an.D), math.Max(paperBoundFor(n, d), 0), rep.Survivors, rep.ChosenSet,
			})
			if len(an.D) < 2 {
				break
			}
		}
		return out
	}) {
		return t
	}
	t.Note("the paper bound is asymptotic; at these n it is vacuous (<1) beyond the first blocks while the measured |D| stays far above it")
	return t
}

// E4Certificates runs the full Corollary 4.1.1 pipeline: adversary →
// certificate → independent verification, on shallow shuffle-based
// networks (truncated bitonic as iterated RDN, iterated butterflies,
// random RDN stacks). Every certificate is replayed through the
// flattened circuit.
func E4Certificates(cfg Config) *Table {
	t := &Table{
		ID:    "E4",
		Title: "Corollary 4.1.1: constructive non-sortability certificates",
		Claim: "any iterated RDN with d < lg n/(4 lg lg n) blocks fails to sort; the adversary emits a verified witness pair",
		Columns: []string{
			"network", "n", "blocks", "depth", "|D|", "certificate", "verified", "m", "wires",
		},
	}
	sizes := []int{64, 256, 1024}
	if cfg.Quick {
		sizes = []int{64, 256}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, n := range sizes {
		l := bits.Lg(n)

		// (a) iterated butterflies with random glue, 2 blocks.
		it := delta.NewIterated(n)
		it.AddBlock(nil, delta.Butterfly(l))
		it.AddBlock(perm.Random(n, rng), delta.Butterfly(l))
		row, err := certRow(cfg, "butterfly×2", n, it)
		if err != nil {
			t.NoteCanceled(err)
			return t
		}
		t.Rows = append(t.Rows, row)

		// (b) truncated bitonic: the first 2 stages of Batcher's sorter
		// (an iterated RDN by construction).
		itb := delta.NewIterated(n)
		prev := perm.Identity(n)
		for s := 1; s <= 2 && s <= l; s++ {
			rho := delta.ReverseLowBits(n, s)
			itb.AddBlock(prev.Compose(rho), delta.BitonicStage(l, s))
			prev = rho
		}
		row, err = certRow(cfg, "bitonic/2-stages", n, itb)
		if err != nil {
			t.NoteCanceled(err)
			return t
		}
		t.Rows = append(t.Rows, row)

		// (c) random full RDN stack.
		itr := delta.NewIterated(n)
		for b := 0; b < 2; b++ {
			itr.AddBlock(perm.Random(n, rng), delta.Random(l, 1.0, rng))
		}
		row, err = certRow(cfg, "random×2", n, itr)
		if err != nil {
			t.NoteCanceled(err)
			return t
		}
		t.Rows = append(t.Rows, row)
	}
	t.Note("certificate = inputs π, π′ differing in adjacent values m, m+1 on two wires the network never compares; verified = replay through the flattened circuit confirms identical routing and unsorted output")
	return t
}

func certRow(cfg Config, name string, n int, it *delta.Iterated) ([]string, error) {
	an, cerr := core.Theorem41Ctx(cfg.Context(), it, 0)
	if cerr != nil {
		return nil, cerr
	}
	cert, err := an.Certificate()
	row := &Table{}
	if err != nil {
		row.AddRow(name, n, it.Blocks(), it.Depth(), len(an.D), "none", "-", "-", "-")
		return row.Rows[0], nil
	}
	circ, _ := it.ToNetwork()
	verified := "FAIL"
	if err := cert.Verify(circ); err == nil {
		verified = "yes"
	}
	row.AddRow(name, n, it.Blocks(), it.Depth(), len(an.D), "yes", verified,
		cert.M, pair(cert.W0, cert.W1))
	return row.Rows[0], nil
}

// E5TruncatedBlocks explores the Section 5 generalization: arbitrary
// permutations every f stages (forest blocks of f-level trees). The
// technique then gives Ω((lg n / lg f)·f); we measure how many blocks
// the adversary survives for various f.
func E5TruncatedBlocks(cfg Config) *Table {
	t := &Table{
		ID:    "E5",
		Title: "Section 5: blocks of f levels between free permutations",
		Claim: "with an arbitrary permutation every f stages the technique yields Ω((lg n/lg f)·f) depth",
		Columns: []string{
			"n", "f", "blocks survived", "total depth", "|D| at stop", "Ω formula",
		},
	}
	sizes := []int{256, 1024}
	if cfg.Quick {
		sizes = []int{256}
	}
	// Each (n, f) cell draws an unpredictable number of blocks (the loop
	// stops when the tracked set collapses), so cells cannot share one
	// sequential stream without serializing the sweep: each gets its own
	// stream derived from (seed, n, f). Recorded tables changed once
	// when this replaced the shared stream; per seed they are stable.
	type e5cell struct{ n, d, f int }
	var cells []e5cell
	for _, n := range sizes {
		d := bits.Lg(n)
		for _, f := range dedupeInts([]int{1, 2, 3, 4, d / 2, d}) {
			if f < 1 || f > d {
				continue
			}
			cells = append(cells, e5cell{n: n, d: d, f: f})
		}
	}
	if !runCells(cfg, t, len(cells), func(i int) cellRow {
		c := cells[i]
		rng := rand.New(rand.NewSource(cellSeed(cfg.Seed, 5, int64(c.n), int64(c.f))))
		maxBlocks := 24 * c.d
		if cfg.Quick {
			maxBlocks = 4 * c.d
		}
		inc := core.NewIncremental(c.n, 0)
		blocks, lastD := 0, c.n
		for blocks < maxBlocks {
			trees := make([]*delta.Network, c.n/(1<<uint(c.f)))
			for i := range trees {
				trees[i] = delta.Random(c.f, 1.0, rng)
			}
			if _, err := inc.AddBlock(cfg.Context(), perm.Random(c.n, rng), delta.NewForest(trees...)); err != nil {
				return cellRow{err: err}
			}
			if d := len(inc.D()); d < 2 {
				break
			} else {
				lastD = d
			}
			blocks++
		}
		survived := trimFloat(float64(blocks))
		if blocks == maxBlocks {
			survived = ">=" + survived // censored at the cap
		}
		formula := float64(c.f) * math.Log2(float64(c.n)) / math.Max(1, math.Log2(float64(c.f)+1))
		return row(c.n, c.f, survived, blocks*c.f, lastD, formula)
	}) {
		return t
	}
	t.Note("blocks survived = largest k with |D| >= 2 after k blocks (incremental adversary); total depth = k·f comparator levels; >= marks runs censored at the block cap")
	t.Note("the Ω formula column is the asymptotic shape (lg n/lg f)·f for comparison of trends, not an absolute prediction")
	return t
}

func dedupeInts(xs []int) []int {
	seen := map[int]bool{}
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// E8AdversaryDepth measures the empirical constant of Corollary 4.1.1:
// the deepest iterated-butterfly stack the adversary survives, against
// lg n/(4 lg lg n) (the proof's constant) and lg n/(2 lg lg n) (the
// sharper constant the paper notes is achievable).
func E8AdversaryDepth(cfg Config) *Table {
	t := &Table{
		ID:    "E8",
		Title: "Empirical adversary depth vs. the proof's constant",
		Claim: "the proof guarantees survival for d < lg n/(4 lg lg n); a sharper analysis gives 1/(2+ε); empirically the adversary lasts longer",
		Columns: []string{
			"n", "max d (|D|>=2)", "lg n/(4 lglg n)", "lg n/(2 lglg n)", "|D| at max d",
		},
	}
	sizes := []int{64, 256, 1024, 4096}
	if cfg.Quick {
		sizes = []int{64, 256}
	}
	// Each n draws permutations until its adversary collapses — a
	// result-dependent count — so the per-n cells use derived streams
	// (see E5); per seed the table is stable.
	if !runCells(cfg, t, len(sizes), func(si int) cellRow {
		n := sizes[si]
		l := bits.Lg(n)
		rng := rand.New(rand.NewSource(cellSeed(cfg.Seed, 8, int64(n))))
		cap := 40 * l
		if cfg.Quick {
			cap = 8 * l
		}
		inc := core.NewIncremental(n, 0)
		maxD, lastSize := 0, 0
		for d := 1; d <= cap; d++ {
			var pre perm.Perm
			if d > 1 {
				pre = perm.Random(n, rng)
			}
			if _, err := inc.AddBlock(cfg.Context(), pre, delta.NewForest(delta.Butterfly(l))); err != nil {
				return cellRow{err: err}
			}
			if len(inc.D()) < 2 {
				break
			}
			maxD, lastSize = d, len(inc.D())
		}
		shown := trimFloat(float64(maxD))
		if maxD == cap {
			shown = ">=" + shown // censored
		}
		lgn := math.Log2(float64(n))
		lglgn := math.Log2(lgn)
		return row(n, shown, lgn/(4*lglgn), lgn/(2*lglgn), lastSize)
	}) {
		return t
	}
	t.Note("max d counts butterfly blocks with random inter-block permutations (incremental adversary; >= marks the block cap); comparator depth is d·lg n")
	return t
}

func paperBoundFor(n, d int) float64 {
	return float64(n) / math.Pow(math.Log2(float64(n)), float64(4*d))
}
