package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"shufflenet/internal/network"
	"shufflenet/internal/obs"
	"shufflenet/internal/par"
	"shufflenet/internal/pattern"
)

// MaxOptimalWires bounds the optimum search. The cost model is not
// 3^n leaf enumeration: the branch-and-bound explores only prefixes
// that are noncolliding so far and not provably unable to beat the
// incumbent, with collision pruning (incSim), a direct-pair capacity
// bound, canonical-state memoization, and sibling dominance cutting
// the rest (see canon.go and memo.go). The cap is set by two things:
// the witness encoding — size plus a 2-bit-per-wire pattern packed
// into one atomic 64-bit word (2·26 + 6 bits) — and the measured
// worst case, dense random circuits, whose optimum is small and whose
// automorphism group is trivial (see EXPERIMENTS.md, "Symmetry
// reduction" and A3). A single process handles n=26 at moderate depth
// in minutes; what moved the cap past 24 is that a search can now be
// checkpointed (frontier records + -resume), its table spilled to
// disk and reopened warm (OpenSpillMemo), and its prefix frontier
// sharded across worker processes (internal/coord) — runs no longer
// have to fit one uninterrupted process. Friendly circuits
// (butterflies, sparse levels, RDN stacks) finish n=26 in seconds.
const MaxOptimalWires = 26

// optimalPrefixDigits fans the top of the search out as independent
// branch-and-bound roots (3^digits prefixes over the first search
// steps). The prefixes are scanned in DFS order by a worker pool
// sharing one atomic incumbent, so the split is both the parallel
// decomposition and a work queue fine enough (81 prefixes) to balance
// uneven subtrees.
const optimalPrefixDigits = 4

// optimalRanks maps a base-3 prefix digit to a symbol rank; the order
// (M, S, L) matches the DFS branch order below, so ascending prefix
// index is exactly sequential DFS order.
var optimalRanks = [3]uint8{rankM, rankS, rankL}

// lexOf maps a symbol rank to its position in the witness order
// M < S < L — the branch order of the reference first-maximum DFS —
// and lexSymbols maps back. The packed incumbent compares witnesses
// in this order.
var lexOf = [3]uint8{rankS: 1, rankM: 0, rankL: 2}

var lexSymbols = [3]pattern.Symbol{pattern.M(0), pattern.S(0), pattern.L(0)}

var (
	metOptimalNodes   = obs.C("core.optimal.nodes")
	metOptimalDomCuts = obs.C("core.optimal.dominance.cuts")
)

// Probe/store boundaries where the residual subtree is at least this
// deep; below it a table round-trip costs more than the subtree.
const memoMinRemain = 3

// Take sibling-dominance snapshots only where the residual subtree is
// at least this deep, for the same reason.
const domMinRemain = 4

// OptimalOptions configures OptimalNoncollidingOpt.
type OptimalOptions struct {
	// Workers is the worker count (0 = GOMAXPROCS, clamped by par.Workers).
	Workers int
	// Memo is the transposition table to consult and fill. nil means
	// allocate a private table of memoAutoBytes(n) for this search;
	// set NoMemo to run without one. A shared table may be passed to
	// concurrent searches, including on different networks.
	Memo *Memo
	// NoMemo disables the transposition table entirely.
	NoMemo bool
	// Progress, when non-nil and started, receives live telemetry: a
	// registered source reports DFS nodes (with derived nodes/sec),
	// prefix-frontier completion (driving the ETA), the current
	// incumbent size, and memo occupancy; incumbent improvements are
	// published as timestamped events carrying the packed witness.
	// Telemetry is read-only — results are byte-identical with it on
	// or off — and when the engine is disabled the search pays one
	// atomic load per cancellation-probe stride (every 2^13 nodes),
	// nothing per node.
	Progress *obs.Progress

	// ShardStart/ShardEnd restrict the scan to prefixes in
	// [ShardStart, ShardEnd) of the OptimalPrefixes(n)-wide frontier;
	// ShardEnd <= 0 means the full frontier. Because the packed
	// incumbent is a pure max over leaves, the max of the shards'
	// packed results over any partition of the frontier equals the
	// whole search's packed result — this is what the coordinator
	// (internal/coord) merges.
	ShardStart, ShardEnd int

	// SkipPrefix, when non-nil, reports prefixes a previous run
	// already completed; their subtrees are not re-explored. Sound
	// only together with a SeedIncumbent at least as large as the
	// incumbent recorded when each skipped prefix finished (the
	// frontier journal guarantees this — see the resume proof in
	// DESIGN.md §4, decision 14).
	SkipPrefix func(prefix int) bool

	// SeedIncumbent pre-loads the packed incumbent (a value previously
	// returned or journaled by this search, i.e. a real leaf). The
	// final result is unchanged by any seed that the full search
	// dominates; a seed from completed prefixes makes skipping them
	// exact.
	SeedIncumbent uint64

	// OnPrefixDone, when non-nil, is called after each prefix subtree
	// is exhausted (including prefixes that die in their own digits
	// and prefixes skipped by SkipPrefix), with the global packed
	// incumbent at that moment. The incumbent is then an upper bound
	// witness for everything the prefix's subtree could contribute,
	// which is exactly what a resume needs to seed. Called
	// concurrently from worker goroutines; implementations
	// synchronize.
	OnPrefixDone func(prefix int, incumbent uint64)
}

// OptimalPrefixes is the width of the search's top-level prefix
// frontier for an n-wire circuit: 3^min(optimalPrefixDigits, n), the
// unit of work distribution, checkpointing, and sharding (81 for every
// n >= 4).
func OptimalPrefixes(n int) int {
	digits := optimalPrefixDigits
	if digits > n {
		digits = n
	}
	p := 1
	for i := 0; i < digits; i++ {
		p *= 3
	}
	return p
}

// DecodeOptimalWitness unpacks a packed incumbent (size<<2n | inverted
// lex key) into the result triple OptimalNoncollidingOpt returns: set
// size, witnessing pattern, and the [M_0]-set. A zero pack decodes to
// the defensive singleton-M default (unreachable from a completed
// search on n >= 1 wires).
func DecodeOptimalWitness(n int, packed uint64) (int, pattern.Pattern, []int) {
	keyBits := uint(2 * n)
	keyMask := uint64(1)<<keyBits - 1
	size := int(packed >> keyBits)
	var p pattern.Pattern
	if size == 0 {
		p = pattern.Uniform(n, pattern.S(0))
		p[0] = pattern.M(0)
		size = 1
	} else {
		p = make(pattern.Pattern, n)
		key := (packed & keyMask) ^ keyMask
		for j := n - 1; j >= 0; j-- {
			p[j] = lexSymbols[key&3]
			key >>= 2
		}
	}
	return size, p, p.Set(pattern.M(0))
}

// OptimalNoncollidingOpt finds, over all 3^n patterns with symbols
// {S_0, M_0, L_0}, a largest noncolliding [M_0]-set in the circuit —
// the best any adversary of the paper's form could possibly achieve on
// this network. It returns the set size, the witnessing pattern, and
// the set itself. opt sets the worker count (0 = GOMAXPROCS), the
// transposition table, telemetry, checkpointing and sharding; the zero
// value runs the whole search with a private table.
//
// The search is branch-and-bound: patterns are enumerated wire by wire
// in the canonizer's cone-closing order (M, then S, then L at each
// wire — M first so large sets are found early and the incumbent bound
// bites), and an incremental simulation (incSim) fires each comparator
// as soon as its cone of influence is fully assigned. A collision
// witnessed at a node condemns every completion of its prefix, a
// residual state already known to the transposition table bounds the
// subtree without descending, and a sibling whose residual state is
// pointwise dominated cannot contribute anything new. The result —
// including which of several maximum-size patterns is returned — is
// identical to the sequential first-maximum DFS of the exhaustive
// oracle, for any worker count and with the memo on or off (see
// DESIGN.md §4, decision 10).
//
// The constructive Lemma 4.1/Theorem 4.1 adversary is a lower bound on
// this optimum; comparing the two (experiment A2) measures the
// per-instance slack of the paper's argument. n must be at most
// MaxOptimalWires.
//
// The search probes for cancellation between prefixes and every few
// thousand DFS nodes; on cancellation the incumbent so far is
// discarded — a partial enumeration proves no optimum — and a
// *par.ErrCanceled is returned.
func OptimalNoncollidingOpt(ctx context.Context, c *network.Network, opt OptimalOptions) (int, pattern.Pattern, []int, error) {
	packed, err := OptimalNoncollidingPacked(ctx, c, opt)
	if err != nil {
		return 0, nil, nil, err
	}
	size, p, set := DecodeOptimalWitness(c.Wires(), packed)
	return size, p, set, nil
}

// OptimalNoncollidingPacked runs the search and returns the raw packed
// incumbent — size<<2n | inverted lex witness key — without decoding.
// This is the merge currency of distribution: shard workers return it,
// the coordinator folds shards with an integer max (the prefix-order
// reduce of DESIGN.md decision 9 applied across processes), and the
// frontier journal records it per completed prefix. A full-frontier,
// unseeded call packs exactly what OptimalNoncollidingOpt decodes.
func OptimalNoncollidingPacked(ctx context.Context, c *network.Network, opt OptimalOptions) (uint64, error) {
	n := c.Wires()
	if n > MaxOptimalWires {
		panic(fmt.Sprintf("core.OptimalNoncolliding: n = %d exceeds the %d-wire cap (the packed witness holds 2 bits per wire plus the size in one 64-bit word, and the pruned branch-and-bound worst case — dense random circuits — is calibrated to %d wires; see MaxOptimalWires)", n, MaxOptimalWires, MaxOptimalWires))
	}
	cz := newCanonizer(c)
	mm := opt.Memo
	if mm == nil && !opt.NoMemo {
		mm = NewMemo(memoAutoBytes(n))
	}

	digits := optimalPrefixDigits
	if digits > n {
		digits = n
	}
	prefixes := OptimalPrefixes(n)
	shardStart, shardEnd := opt.ShardStart, opt.ShardEnd
	if shardEnd <= 0 || shardEnd > prefixes {
		shardEnd = prefixes
	}
	if shardStart < 0 {
		shardStart = 0
	}
	if shardStart > shardEnd {
		shardStart = shardEnd
	}
	shardN := shardEnd - shardStart

	// The incumbent packs the best leaf found so far as
	// size<<(2n) | (witness lex key ^ keyMask): bigger sets win, and
	// among equal sizes the witness that is lexicographically least in
	// the reference order (wire 0..n-1 ascending, M < S < L) wins.
	// Because the packed order is a pure max over leaves, the final
	// value is independent of exploration order, scheduling, worker
	// count, and memoization — every cut below only removes leaves
	// that provably cannot beat the final pack.
	keyBits := uint(2 * n)
	keyMask := uint64(1)<<keyBits - 1
	var incumbent atomic.Uint64
	incumbent.Store(opt.SeedIncumbent)
	var nextPrefix atomic.Int64
	var canceled atomic.Bool
	var liveNodes, prefixesDone atomic.Int64
	done := ctx.Done()

	// onDone retires a frontier prefix: the progress counter always
	// moves, and the checkpoint callback (if any) observes the global
	// incumbent *after* the subtree is exhausted — by the resume proof
	// (DESIGN.md decision 14) that value dominates everything the
	// prefix could have contributed, so it is exactly the seed a
	// resumed run needs when skipping this prefix.
	onDone := func(p int) {
		prefixesDone.Add(1)
		if opt.OnPrefixDone != nil {
			opt.OnPrefixDone(p, incumbent.Load())
		}
	}

	// Live-telemetry state: workers fold their local node counts in at
	// the cancellation-probe cadence (and at prefix boundaries), so a
	// Progress source can report nodes/sec and frontier completion
	// without the hot loop ever touching a shared atomic per node.
	prog := opt.Progress
	if prog != nil {
		unregister := prog.Register(func(s *obs.Sample) {
			s.Counter("optimal.nodes", liveNodes.Load())
			dp := prefixesDone.Load()
			s.Field("optimal.prefixes_done", dp)
			s.Field("optimal.prefixes_total", int64(shardN))
			s.SetFraction(float64(dp), float64(shardN))
			s.Field("optimal.incumbent", int64(incumbent.Load()>>keyBits))
			if mm != nil {
				s.Field("optimal.memo_load", mm.Stats().LoadFactor)
			}
		})
		defer unregister()
	}

	worker := func() {
		sim := newIncSim(cz)
		ranks := make([]uint8, n) // by wire
		scratch := make([]uint8, n)
		witLex := make([]uint8, n)
		witFor := ^uint64(0)
		domM := make([][]uint8, n)
		domS := make([][]uint8, n)
		var st memoStats
		var nodes, domCuts int64
		var nodesFlushed int64
		stopped := false
		probe := 0
		const probeEvery = 1 << 13
		defer func() {
			mm.flush(&st)
			metOptimalNodes.Add(nodes)
			metOptimalDomCuts.Add(domCuts)
			liveNodes.Add(nodes - nodesFlushed)
		}()

		checkCancel := func() bool {
			if canceled.Load() {
				return true
			}
			if done != nil {
				select {
				case <-done:
					canceled.Store(true)
					return true
				default:
				}
			}
			return false
		}

		// lexGreater reports that every leaf of the current subtree is
		// lexicographically greater than the incumbent witness: the
		// first reference-order wire where the subtree is not pinned to
		// the witness value decides, and if it is unassigned the
		// subtree straddles the witness. O(first unassigned wire).
		lexGreater := func(t int, inc uint64) bool {
			if witFor != inc {
				key := (inc & keyMask) ^ keyMask
				for j := n - 1; j >= 0; j-- {
					witLex[j] = uint8(key & 3)
					key >>= 2
				}
				witFor = inc
			}
			for j := 0; j < n; j++ {
				if int(cz.stepOf[j]) >= t {
					return false
				}
				if d := lexOf[ranks[j]]; d != witLex[j] {
					return d > witLex[j]
				}
			}
			return false
		}

		// capAfter maintains the direct-pair capacity bound across the
		// assignment of wire w: every pair contributes at most one M,
		// and an unpaired wire at most one.
		capAfter := func(t, w int, rank uint8, cap int) int {
			p := cz.partner[w]
			if p < 0 {
				return cap - 1
			}
			if cz.stepOf[p] > int32(t) { // partner still unassigned
				if rank == rankM {
					return cap - 1
				}
				return cap // the pair's unit passes to the partner
			}
			if ranks[p] == rankM {
				return cap // unit was consumed at the partner
			}
			return cap - 1
		}

		// dfs explores the subtree at boundary t and returns a true
		// upper bound on the size of any noncolliding leaf in it:
		// leaves return their exact size, cut nodes return the bound
		// that justified the cut, and interior nodes return the max of
		// their children's bounds (capped by their own entry bound).
		// Truth of the returned bound is the invariant that makes memo
		// entries sound wherever they are probed.
		var dfs func(t, mCount, cap int) int
		dfs = func(t, mCount, cap int) int {
			nodes++
			ub := n - t
			if cap < ub {
				ub = cap
			}
			bound := mCount + ub
			inc := incumbent.Load()
			incSize := int(inc >> keyBits)
			if bound < incSize {
				return bound
			}
			if bound == incSize && lexGreater(t, inc) {
				return bound
			}
			if probe++; probe >= probeEvery {
				probe = 0
				if checkCancel() {
					stopped = true
				}
				if prog.Enabled() {
					liveNodes.Add(nodes - nodesFlushed)
					nodesFlushed = nodes
					mm.flush(&st)
				}
			}
			if stopped {
				return bound
			}
			if t == n {
				if mCount > 0 {
					var key uint64
					for j := 0; j < n; j++ {
						key = key<<2 | uint64(lexOf[ranks[j]])
					}
					pk := uint64(mCount)<<keyBits | (key ^ keyMask)
					for {
						cur := incumbent.Load()
						if pk <= cur {
							break
						}
						if incumbent.CompareAndSwap(cur, pk) {
							if prog.Enabled() {
								prog.Event("incumbent", map[string]any{
									"size":   mCount,
									"packed": pk,
								})
							}
							break
						}
					}
				}
				return mCount
			}

			useMemo := mm != nil && cz.probeAt[t] && n-t >= memoMinRemain
			var h1, h2 uint64
			if useMemo {
				h1, h2 = cz.key(t, sim.sym, scratch)
				if mub, ok := mm.probe(h1, h2, t, &st); ok && int(mub) < ub {
					ub = int(mub)
					bound = mCount + ub
					if bound < incSize {
						return bound
					}
					if bound == incSize && lexGreater(t, inc) {
						return bound
					}
				}
			}

			w := int(cz.order[t])
			mark := sim.mark()
			B := 0
			dom := len(cz.trigger[t]) > 0 && n-t >= domMinRemain && !cz.mOnly[t]
			live := cz.liveList[t+1]
			haveM, haveS := false, false
			if dom {
				if domM[t] == nil {
					domM[t] = make([]uint8, n)
					domS[t] = make([]uint8, n)
				}
			}
			// dominated reports that the just-assigned sibling's
			// residual state is pointwise dominated by snap: equal
			// everywhere except rails where the new state has M where
			// the sibling had a non-M. Demoting those M's maps every
			// valid completion of the new state to a valid completion
			// of the sibling's with the same added M's, so the subtree
			// cannot contribute anything the explored sibling did not
			// already account for.
			dominated := func(snap []uint8) bool {
				for i, r := range live {
					if v := sim.sym[r]; v != snap[i] && v != rankM {
						return false
					}
				}
				return true
			}
			snapshot := func(buf []uint8) {
				for i, r := range live {
					buf[i] = sim.sym[r]
				}
			}

			ranks[w] = rankM
			if sim.assign(t, rankM) {
				if dom {
					snapshot(domM[t])
					haveM = true
				}
				if b := dfs(t+1, mCount+1, capAfter(t, w, rankM, cap)); b > B {
					B = b
				}
			}
			sim.undo(mark)
			if !stopped && !cz.mOnly[t] {
				ranks[w] = rankS
				if sim.assign(t, rankS) {
					if haveM && dominated(domM[t]) {
						domCuts++
					} else {
						if dom {
							snapshot(domS[t])
							haveS = true
						}
						if b := dfs(t+1, mCount, capAfter(t, w, rankS, cap)); b > B {
							B = b
						}
					}
				}
				sim.undo(mark)
				if !stopped {
					ranks[w] = rankL
					if sim.assign(t, rankL) {
						if (haveM && dominated(domM[t])) || (haveS && dominated(domS[t])) {
							domCuts++
						} else if b := dfs(t+1, mCount, capAfter(t, w, rankL, cap)); b > B {
							B = b
						}
					}
					sim.undo(mark)
				}
			}
			if B < bound {
				bound = B
			}
			if useMemo && !stopped {
				d := bound - mCount
				if d < 0 {
					d = 0
				}
				mm.store(h1, h2, t, uint8(d), &st)
			}
			return bound
		}

		for {
			p := shardStart + int(nextPrefix.Add(1)-1)
			if p >= shardEnd || checkCancel() {
				return
			}
			if opt.SkipPrefix != nil && opt.SkipPrefix(p) {
				// A previous run finished this subtree; SeedIncumbent
				// already dominates it, so skipping is exact.
				onDone(p)
				continue
			}

			// Assign the prefix digits (most significant digit = step 0).
			sim.undo(0)
			mCount, cap := 0, cz.capInit
			live := true
			for t, rest, div := 0, p, prefixes/3; t < digits; t++ {
				rank := optimalRanks[rest/div]
				rest %= div
				if div > 1 {
					div /= 3
				}
				w := int(cz.order[t])
				ranks[w] = rank
				if rank == rankM {
					mCount++
				}
				cap = capAfter(t, w, rank, cap)
				if !sim.assign(t, rank) {
					live = false // the prefix itself collides: subtree dead
					break
				}
			}
			if !live {
				onDone(p)
				continue
			}
			dfs(digits, mCount, cap)
			if stopped {
				return
			}
			onDone(p)
		}
	}

	if nw := par.Workers(shardN, opt.Workers); nw <= 1 {
		worker()
	} else {
		var wg sync.WaitGroup
		for i := 0; i < nw; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}
	if canceled.Load() {
		return 0, &par.ErrCanceled{Op: "core.OptimalNoncolliding", Cause: ctx.Err()}
	}

	// The packed incumbent is simultaneously the maximum and its own
	// witness, so there is nothing to reduce — and nothing to decode
	// here: callers that want the triple go through DecodeOptimalWitness.
	return incumbent.Load(), nil
}
