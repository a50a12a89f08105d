// Package core implements the paper's contribution: the lower-bound
// adversary of Section 4, made constructive.
//
// Lemma41 executes the induction of Lemma 4.1 on a reverse delta
// network: starting from a pattern over {S_0, M_0, L_0}, it maintains a
// collection of t(l) = k³ + l·k² noncolliding [M_i]-sets through the
// network, computing at every node the collision sets C_{i,j}, the
// averaging offset i₀ minimizing |L_{i₀}|, the partial matching between
// the two sub-networks' collections, and the order-preserving renamings
// (steps 1, 2, 1', 2' of the paper) that realize the matching as a
// pattern refinement.
//
// Theorem41Ctx iterates Lemma41 across the blocks of an iterated reverse
// delta network, between blocks renaming the largest surviving set to
// M_0 via Lemma 3.4's ρ_i and discarding the rest.
//
// Certificate turns the surviving set into the Corollary 4.1.1 witness:
// two concrete inputs π, π′ differing in a pair of adjacent values that
// the network never compares, so it cannot sort both. Verify replays
// both inputs through an independent evaluation of the network and
// checks every step of that argument.
package core

import (
	"context"
	"fmt"

	"shufflenet/internal/delta"
	"shufflenet/internal/obs"
	"shufflenet/internal/par"
	"shufflenet/internal/pattern"
)

// Adversary metrics, added once per Lemma41 call (the recursion itself
// stays atomic-free; collision counts ride up through LemmaResult).
var (
	metLemmaTrees      = obs.C("core.lemma41.trees")
	metLemmaWires      = obs.C("core.lemma41.wires")
	metLemmaLevels     = obs.C("core.lemma41.levels")
	metLemmaCollisions = obs.C("core.lemma41.collisions")
)

// LemmaResult is the outcome of Lemma41 on one reverse delta tree.
type LemmaResult struct {
	// Q is the refined input pattern over the tree's slots: an
	// A-refinement of the input pattern (paper notation: p ⊐_A q).
	Q pattern.Pattern
	// Sets[i] is the [M_i]-set of Q (input slots, increasing order).
	// The slice has length T; indices with no surviving wires are nil.
	// The set index is dense (< t(l)), so a flat slice replaces the
	// map the recursion used to carry per node.
	Sets [][]int
	// T is t(l) = k³ + l·k², the bound on the number of sets.
	T int
	// OutWire[o] is the input slot whose value reaches output slot o
	// under Q (exact for all tracked wires).
	OutWire []int
	// Survivors is |B| = Σ|Sets[i]|; Initial is |A|.
	Survivors, Initial int
	// Collisions is the total number of tracked wires charged to
	// collision sets C_{j,j-i0} (and hence renamed to X symbols)
	// across every node of the recursion — the adversary's entire
	// loss budget, spent where the averaging argument says it may.
	Collisions int
	// xNext is the next unused X subscript (internal bookkeeping,
	// exported via method only).
	xNext int
}

// OutPattern returns the output pattern Λ(Q): the symbol on each output
// slot.
func (r *LemmaResult) OutPattern() pattern.Pattern {
	out := make(pattern.Pattern, len(r.OutWire))
	for o, w := range r.OutWire {
		out[o] = r.Q[w]
	}
	return out
}

// SetCount returns the number of nonempty surviving sets.
func (r *LemmaResult) SetCount() int {
	n := 0
	for _, s := range r.Sets {
		if len(s) > 0 {
			n++
		}
	}
	return n
}

// LargestSet returns the index and wires of a largest surviving set
// (ties broken toward the smallest index), or (-1, nil) if all sets are
// empty.
func (r *LemmaResult) LargestSet() (int, []int) {
	best, bestIdx := 0, -1
	for i, s := range r.Sets {
		if len(s) > best {
			best, bestIdx = len(s), i
		}
	}
	if bestIdx < 0 {
		return -1, nil
	}
	return bestIdx, r.Sets[bestIdx]
}

// MaxK caps the averaging parameter k accepted by Lemma41 and
// NewIncremental. The paper's choice is k = lg n, and the widest
// ablation (A1) uses 4·lg 1024 = 40; 64 leaves headroom. The cap
// exists because the lemma allocates k³ + l·k² set slots and a k²
// histogram: an unchecked k from a request or a flag can exhaust
// memory, which a recover cannot catch.
const MaxK = 64

// Lemma41 runs the constructive Lemma 4.1 on the l-level reverse delta
// tree d under input pattern p (which must use only S_0, M_0, L_0),
// with averaging parameter 1 <= k <= MaxK. It returns a refinement Q of
// p and at most t(l) = k³ + l·k² disjoint noncolliding [M_i]-sets that
// together contain at least |A|·(1 − l/k²) of the wires of the original
// [M_0]-set A.
//
// The recursion probes the context's done channel once per tree node
// (never inside a node's comparator loops), which a Background context
// compiles down to a nil check. On cancellation the induction's
// intermediate state is discarded — a half-built refinement proves
// nothing — and a *par.ErrCanceled is returned with a nil result.
func Lemma41(ctx context.Context, d *delta.Network, p pattern.Pattern, k int) (*LemmaResult, error) {
	if len(p) != d.Inputs() {
		panic(fmt.Sprintf("core.Lemma41: pattern width %d != %d inputs", len(p), d.Inputs()))
	}
	if k < 1 || k > MaxK {
		panic(fmt.Sprintf("core.Lemma41: k = %d outside [1, %d]", k, MaxK))
	}
	for _, s := range p {
		if s != pattern.S(0) && s != pattern.M(0) && s != pattern.L(0) {
			panic(fmt.Sprintf("core.Lemma41: input pattern contains %v; only S0/M0/L0 allowed", s))
		}
	}
	metLemmaTrees.Inc()
	metLemmaWires.Add(int64(d.Inputs()))
	metLemmaLevels.Add(int64(d.Levels()))

	// One allocation block for the whole run: the recursion mutates
	// disjoint subranges of these buffers in place instead of cloning
	// patterns and rebuilding collections at every node.
	n := d.Inputs()
	st := &lemmaState{
		q:       p.Clone(),
		outWire: make([]int, n),
		setIdx:  make([]int, n),
	}
	nr, ok := lemmaRec(d, st, 0, k, newLemmaScratch(k), ctx.Done())
	if !ok {
		return nil, &par.ErrCanceled{Op: "core.Lemma41", Cause: ctx.Err()}
	}
	metLemmaCollisions.Add(int64(nr.collisions))

	t := k*k*k + d.Levels()*k*k
	sets := make([][]int, t)
	for w, j := range st.setIdx {
		if j >= 0 {
			sets[j] = append(sets[j], w)
		}
	}
	res := &LemmaResult{
		Q:          st.q,
		Sets:       sets,
		T:          t,
		OutWire:    st.outWire,
		Survivors:  nr.survivors,
		Initial:    nr.initial,
		Collisions: nr.collisions,
		xNext:      nr.xNext,
	}
	// Paper invariant: |B| >= |A| - l*|A|/k².
	if float64(res.Survivors) < float64(res.Initial)-float64(d.Levels()*res.Initial)/float64(k*k)-1e-9 {
		panic(fmt.Sprintf("core.Lemma41: survival bound violated: |B|=%d |A|=%d l=%d k=%d",
			res.Survivors, res.Initial, d.Levels(), k))
	}
	return res, nil
}

// parallelSubtree is the sub-network size above which the two
// sub-recursions of lemmaRec run on separate goroutines. With halving
// sizes the spawn count is O(n / parallelSubtree), so the threshold
// bounds goroutine overhead while exposing ~n/threshold-way
// parallelism at the top of the recursion.
const parallelSubtree = 1 << 11

// setRemoved marks a slot whose wire was just charged to the collision
// set C_{j,j-i0} at the current node: the renaming loop turns it into an
// X symbol and downgrades the mark to -1 (untracked).
const setRemoved = -2

// lemmaState is the shared per-run state of the Lemma 4.1 recursion. A
// node over slots [base, base+m) owns exactly that subrange of each
// buffer; the two sub-recursions touch disjoint ranges, so the parallel
// fork needs no locking.
type lemmaState struct {
	// q is the pattern being refined in place (global slot indexing).
	q pattern.Pattern
	// outWire[base+o] is the global input slot whose value reaches the
	// subtree-local output slot o.
	outWire []int
	// setIdx[w] is the index of the noncolliding set containing global
	// slot w, or -1 (untracked) or setRemoved (being removed at the
	// current node). This inverted representation makes the per-node
	// set lookup O(1) — it replaces both the map collection and the
	// setOf linear scan on the assertion path.
	setIdx []int
}

// lemmaScratch is per-goroutine scratch reused across the nodes of a
// (sub-)recursion: the meeting list and the averaging histogram. The
// parallel fork hands the spawned goroutine a fresh scratch; everything
// else on the hot path reuses the parent's buffers, so steady-state
// node processing allocates nothing.
type lemmaScratch struct {
	meetings    []lemmaMeeting
	offsetCount []int // len k²
}

// lemmaMeeting records one final-level meeting of two tracked wires:
// global slot w0 on the sub0 side, set indices j0 (sub0) and j1 (sub1).
type lemmaMeeting struct{ w0, j0, j1 int }

func newLemmaScratch(k int) *lemmaScratch {
	return &lemmaScratch{offsetCount: make([]int, k*k)}
}

// lemmaNode is the by-value summary a recursion level hands its parent;
// the heavy state lives in the shared lemmaState buffers.
type lemmaNode struct {
	survivors, initial, collisions, xNext int
}

// lemmaRec is the induction of Lemma 4.1 over the subtree d occupying
// global slots [base, base+d.Inputs()). done is the caller's
// cancellation channel (nil when the run is not cancelable); a closed
// done makes the whole recursion unwind with ok = false. One probe per
// node keeps the per-comparator loops branch-free, and a nil done is a
// single pointer check — the non-cancelable path is unchanged.
func lemmaRec(d *delta.Network, st *lemmaState, base, k int, sc *lemmaScratch, done <-chan struct{}) (lemmaNode, bool) {
	if done != nil {
		select {
		case <-done:
			return lemmaNode{}, false
		default:
		}
	}

	if d.Levels() == 0 {
		// Base case: M_0 := A, all other sets empty, q := p (in place).
		nr := lemmaNode{}
		st.outWire[base] = base
		if st.q[base] == pattern.M(0) {
			st.setIdx[base] = 0
			nr.survivors, nr.initial = 1, 1
		} else {
			st.setIdx[base] = -1
		}
		return nr, true
	}

	h := d.Inputs() / 2
	l := d.Levels() - 1 // sub-networks have l levels; this node is level l+1
	k2 := k * k
	tl := k*k2 + l*k2 // t(l)

	// The two sub-recursions touch disjoint slot ranges and share no
	// state, so above a size threshold they run concurrently (the
	// spawned side gets its own scratch). The result is bit-identical
	// to the sequential order (all averaging ties are broken
	// deterministically).
	var st0, st1 lemmaNode
	var ok0, ok1 bool
	if h >= parallelSubtree {
		joined := make(chan struct{})
		go func() {
			defer close(joined)
			st1, ok1 = lemmaRec(d.Sub(1), st, base+h, k, newLemmaScratch(k), done)
		}()
		st0, ok0 = lemmaRec(d.Sub(0), st, base, k, sc, done)
		<-joined
	} else {
		st0, ok0 = lemmaRec(d.Sub(0), st, base, k, sc, done)
		if !ok0 {
			return lemmaNode{}, false
		}
		st1, ok1 = lemmaRec(d.Sub(1), st, base+h, k, sc, done)
	}
	if !ok0 || !ok1 {
		return lemmaNode{}, false // canceled somewhere below; unwind
	}

	// Final-level meetings between tracked wires: for each comparator,
	// the values arriving are those of outWire at the comparator's
	// slots. A meeting between M_{0,i} and M_{1,j} contributes the
	// sub0 wire to C_{i,j}; the paper's L_offset collects C_{j, j-offset}.
	fin := d.Final()
	meetings := sc.meetings[:0]
	offsetCount := sc.offsetCount
	for i := range offsetCount {
		offsetCount[i] = 0
	}
	for _, cmp := range fin {
		w0 := st.outWire[base+cmp.O0]
		w1 := st.outWire[base+h+cmp.O1]
		j0, j1 := st.setIdx[w0], st.setIdx[w1]
		if j0 < 0 || j1 < 0 {
			continue
		}
		meetings = append(meetings, lemmaMeeting{w0: w0, j0: j0, j1: j1})
		if off := j0 - j1; off >= 0 && off < k2 {
			offsetCount[off]++
		}
	}
	sc.meetings = meetings // keep the grown capacity for later nodes

	// Averaging: choose i0 minimizing |L_{i0}|.
	i0 := 0
	for off := 1; off < k2; off++ {
		if offsetCount[off] < offsetCount[i0] {
			i0 = off
		}
	}

	// Mark the wires of C_{j, j-i0} (sub0 side) for removal. Each sub0
	// wire appears in at most one final comparator, so the marks are
	// distinct.
	removed := 0
	for _, m := range meetings {
		if m.j0-m.j1 == i0 {
			st.setIdx[m.w0] = setRemoved
			removed++
		}
	}

	// Renaming step 1 / 1' (defensive; such symbols normally absent):
	// shift M_i / X_{i,j} with i >= t(l) (sub0) or i >= t(l)+i0 (sub1)
	// up by k². Step 2: removed sub0 wires M_j -> X(j, j0fresh).
	// Step 2': shift all sub1 M_i / X_{i,j} with i < t(l) up by i0 —
	// which realizes the merge M_j := (M_{0,j} \ C_{j,j-i0}) ∪ M_{1,j-i0}
	// directly on the setIdx marks.
	xFresh := maxInt(st0.xNext, st1.xNext)
	usedFresh := false
	for w := base; w < base+h; w++ {
		s := shiftFrom(st.q[w], tl, k2)
		if st.setIdx[w] == setRemoved {
			if s.Kind != pattern.KindM {
				panic(fmt.Sprintf("core: removed wire %d carries %v, want an M symbol", w-base, s))
			}
			s = pattern.X(s.I, xFresh)
			usedFresh = true
			st.setIdx[w] = -1
		}
		st.q[w] = s
	}
	for w := base + h; w < base+2*h; w++ {
		s := shiftFrom(st.q[w], tl+i0, k2)
		st.q[w] = shiftBelow(s, tl, i0)
		if st.setIdx[w] >= 0 {
			st.setIdx[w] += i0
		}
	}
	if usedFresh {
		xFresh++
	}

	// Output wires: the sub-recursions already wrote the concatenation
	// (global slots), so only the final level remains, applied with the
	// *renamed* symbols (renamings are order-preserving so earlier
	// routing decisions are unaffected).
	for _, cmp := range fin {
		oa, ob := base+cmp.O0, base+h+cmp.O1
		wa, wb := st.outWire[oa], st.outWire[ob]
		c := pattern.Compare(st.q[wa], st.q[wb])
		if c == 0 {
			// Ambiguous meeting: both sides must now be untracked.
			if st.setIdx[wa] >= 0 && st.setIdx[wb] >= 0 {
				panic("core: tracked wires still collide after removal")
			}
			continue // convention: equal symbols stay in place
		}
		// Route min to the MinFirst side.
		minAtA := c < 0
		if cmp.MinFirst != minAtA {
			st.outWire[oa], st.outWire[ob] = wb, wa
		}
	}

	return lemmaNode{
		survivors:  st0.survivors + st1.survivors - removed,
		initial:    st0.initial + st1.initial,
		collisions: st0.collisions + st1.collisions + removed,
		xNext:      xFresh,
	}, true
}

// shiftFrom shifts M_i -> M_{i+by} and X_{i,j} -> X_{i+by,j} for all
// i >= from, leaving other symbols unchanged.
func shiftFrom(s pattern.Symbol, from, by int) pattern.Symbol {
	if (s.Kind == pattern.KindM || s.Kind == pattern.KindX) && s.I >= from {
		s.I += by
	}
	return s
}

// shiftBelow shifts M_i -> M_{i+by} and X_{i,j} -> X_{i+by,j} for all
// i < below, leaving other symbols unchanged.
func shiftBelow(s pattern.Symbol, below, by int) pattern.Symbol {
	if (s.Kind == pattern.KindM || s.Kind == pattern.KindX) && s.I < below {
		s.I += by
	}
	return s
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
