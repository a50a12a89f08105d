package core

import (
	"context"
	"fmt"

	"shufflenet/internal/delta"
	"shufflenet/internal/obs"
	"shufflenet/internal/par"
	"shufflenet/internal/pattern"
	"shufflenet/internal/perm"
)

// Per-block adversary metrics. The survivors histogram buckets the
// size of the kept set after each block (powers of two up to 2^20),
// so a long run shows at a glance where the tracked set collapses.
var (
	metBlocks         = obs.C("core.adversary.blocks")
	metBlockSurvivors = obs.H("core.adversary.block_kept", obs.Pow2Bounds(20))
)

// Incremental is the adversary of Theorem 4.1 driven one block at a
// time. It serves two purposes:
//
//   - efficiency: experiments that grow a network block by block (E5,
//     E8) advance the adversary in O(one block) per step instead of
//     re-running the whole prefix; and
//   - adaptivity (Section 5): the paper observes that the lower bound
//     holds even when each level's labeling is chosen after seeing all
//     previous comparison outcomes. Incremental realizes that game
//     exactly — the caller may inspect D(), Pattern(), and the reports
//     before choosing the next block, and the bound still holds because
//     the adversary commits only to a pattern, never to an input.
//
// The zero value is not usable; construct with NewIncremental.
type Incremental struct {
	n        int
	k        int
	pOrig    pattern.Pattern
	originAt perm.Perm
	reports  []BlockReport
	dead     bool
}

// NewIncremental starts an adversary on n = 2^d wires with averaging
// parameter k <= MaxK (k <= 0 selects the paper's k = lg n).
func NewIncremental(n, k int) *Incremental {
	if k > MaxK {
		panic(fmt.Sprintf("core.NewIncremental: k = %d exceeds %d", k, MaxK))
	}
	if k <= 0 {
		k = lg(n)
		if k < 1 {
			k = 1
		}
	}
	return &Incremental{
		n:        n,
		k:        k,
		pOrig:    pattern.Uniform(n, pattern.M(0)),
		originAt: perm.Identity(n),
	}
}

// N returns the wire count.
func (inc *Incremental) N() int { return inc.n }

// K returns the averaging parameter.
func (inc *Incremental) K() int { return inc.k }

// D returns the current noncolliding [M_0]-set over original wires.
func (inc *Incremental) D() []int { return inc.pOrig.Set(pattern.M(0)) }

// Pattern returns (a copy of) the current pattern over original wires.
func (inc *Incremental) Pattern() pattern.Pattern { return inc.pOrig.Clone() }

// Reports returns the per-block reports so far.
func (inc *Incremental) Reports() []BlockReport { return inc.reports }

// Dead reports whether the tracked set has collapsed (|D| < 1); further
// blocks cannot revive it.
func (inc *Incremental) Dead() bool { return inc.dead }

// AddBlock advances the adversary through one block: the permutation
// pre (nil = identity) followed by the forest f. It returns the report
// for the block. The caller must feed the same blocks, in the same
// order, to the network being argued about.
//
// On cancellation the block is abandoned: the pattern, D, and reports
// are left exactly as after the last completed block (so Analysis()
// stays honest), and the returned *par.ErrCanceled records that state.
// The receiver is then mid-block (its slot bookkeeping has already
// absorbed pre) and must not be advanced further — read it out and
// drop it.
func (inc *Incremental) AddBlock(ctx context.Context, pre perm.Perm, f delta.Forest) (BlockReport, error) {
	n := inc.n
	if f.Slots() != n {
		panic(fmt.Sprintf("core.Incremental: forest covers %d slots, want %d", f.Slots(), n))
	}
	if pre != nil {
		if len(pre) != n {
			panic(fmt.Sprintf("core.Incremental: permutation on %d slots, want %d", len(pre), n))
		}
		tmp := make(perm.Perm, n)
		for s, w := range inc.originAt {
			tmp[pre[s]] = w
		}
		inc.originAt = tmp
	}

	pSlots := make(pattern.Pattern, n)
	for s, w := range inc.originAt {
		pSlots[s] = inc.pOrig[w]
	}
	before := pSlots.Count(pattern.M(0))

	merged := map[int][]int{}
	qSlots := make(pattern.Pattern, n)
	outWire := make([]int, n)
	off := 0
	tMax := 0
	collisions := 0
	for _, tree := range f.Trees() {
		m := tree.Inputs()
		res, err := Lemma41(ctx, tree, pSlots[off:off+m].Clone(), inc.k)
		if err != nil {
			return BlockReport{}, &par.ErrCanceled{
				Op:         "core.Incremental.AddBlock",
				Cause:      ctx.Err(),
				BlocksDone: len(inc.reports),
				Survivors:  len(inc.D()),
			}
		}
		collisions += res.Collisions
		if res.T > tMax {
			tMax = res.T
		}
		for i, ws := range res.Sets {
			if len(ws) == 0 {
				continue
			}
			for _, w := range ws {
				merged[i] = append(merged[i], off+w)
			}
		}
		copy(qSlots[off:off+m], res.Q)
		for o, w := range res.OutWire {
			outWire[off+o] = off + w
		}
		off += m
	}

	bestIdx, bestLen := -1, -1
	surv := 0
	setCount := 0
	for i := 0; i < tMax; i++ {
		ws, ok := merged[i]
		if !ok {
			continue
		}
		surv += len(ws)
		setCount++
		if len(ws) > bestLen {
			bestIdx, bestLen = i, len(ws)
		}
	}

	rep := BlockReport{
		Block:      len(inc.reports),
		Levels:     f.Levels(),
		Before:     before,
		Survivors:  surv,
		SetCount:   setCount,
		Collisions: collisions,
		ChosenSet:  bestIdx,
		After:      bestLen,
		PaperBound: paperBound(n, len(inc.reports)+1),
	}
	inc.reports = append(inc.reports, rep)
	metBlocks.Inc()

	if bestIdx < 0 {
		for w := range inc.pOrig {
			inc.pOrig[w] = pattern.L(0)
		}
		inc.dead = true
		rep.After = 0
		inc.reports[len(inc.reports)-1] = rep
		metBlockSurvivors.Observe(0)
		return rep, nil
	}
	metBlockSurvivors.Observe(int64(bestLen))

	renamed := qSlots.Rename(bestIdx)
	for s, w := range inc.originAt {
		inc.pOrig[w] = renamed[s]
	}
	next := make(perm.Perm, n)
	for o, s := range outWire {
		next[o] = inc.originAt[s]
	}
	inc.originAt = next
	return rep, nil
}

// Analysis snapshots the adversary's state in the Theorem41Ctx result
// form.
func (inc *Incremental) Analysis() *Analysis {
	return &Analysis{
		P:       inc.Pattern(),
		D:       inc.D(),
		Reports: append([]BlockReport(nil), inc.reports...),
		K:       inc.k,
	}
}
