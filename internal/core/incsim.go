package core

import (
	"shufflenet/internal/pattern"
)

// Symbol ranks for the three-letter alphabet {S_0, M_0, L_0} the
// optimum search enumerates. Compare on these patterns reduces to
// integer comparison of the ranks (S < M < L in <_P), so the
// incremental simulation works on 2-bit ranks instead of Symbol
// structs. M is the only rank with the low bit set, which is what
// makes a collision test one AND (see fire) and the M rails of a
// state one mask (see mRails).
const (
	rankS uint8 = 0
	rankM uint8 = 1
	rankL uint8 = 2
)

var rankSymbols = [3]pattern.Symbol{pattern.S(0), pattern.M(0), pattern.L(0)}

// railState is the rail symbols of the incremental simulation packed
// 2 bits per rail: rail r's rank sits at bits 2r and 2r+1. The
// canonizer caps n at 32, so a state is one machine word; the search
// passes it by value, so backtracking is just returning to the
// parent's copy — there is nothing to undo. Rails of unassigned wires
// hold S (zero) and are never read: their comparators are in later
// trigger groups.
type railState uint64

// lowBits selects the low bit of every rail.
const lowBits railState = 0x5555555555555555

// mRails returns both bits of every rail of st that holds M.
func mRails(st railState) railState {
	m := st & lowBits
	return m | m<<1
}

// dominated reports that a just-assigned sibling's residual state next
// is pointwise dominated by an explored sibling's state snap on the
// live rails: equal on each of them except where next has M and snap a
// non-M. Demoting those M's maps every valid completion of next to a
// valid completion of snap with the same added M's, so next's subtree
// cannot contribute anything the explored sibling did not already
// account for.
func dominated(next, snap, live railState) bool {
	return (next^snap)&live&^mRails(next) == 0
}

// rank returns the rank on rail r.
func (st railState) rank(r int32) uint8 { return uint8(st>>(2*uint(r))) & 3 }

// railPair is one comparator as the shift amounts of its rails'
// ranks in a railState (a = min rail, b = max rail).
type railPair struct{ a, b uint8 }

// fire extends a symbol simulation of the circuit by one input wire:
// it sets the input wire of search step t (which must be the next
// unassigned step, with all earlier steps assigned and their trigger
// groups fired in st) to rank and fires the comparators of trigger
// group t. It reports false if any of them collides (sees M on both
// inputs): every completion of this prefix is then colliding. The
// wire's rail still holds S when the group fires — any comparator
// touching that rail has the wire in its cone, so it is in group >= t
// — so setting it is an OR.
//
// This is the engine under the branch-and-bound in
// OptimalNoncollidingPacked. The from-scratch alternative
// (pattern.Noncolliding per leaf) re-simulates all c.Size()
// comparators for every enumerated pattern; fire runs each comparator
// exactly once per DFS branch.
//
// The key observation is that a comparator's outcome is determined as
// soon as every input wire in its cone of influence is assigned, and
// the static schedule for any assignment order is computable up front:
// grouping comparators by the last-assigned wire of their cone
// (canonizer.trigger) and firing group t when step t's wire is
// assigned replays exactly the level-major simulation of
// pattern.EvalTrace restricted to determined comparators. Any
// comparator feeding one of c's rails has a cone contained in c's,
// hence an equal-or-earlier group (and an earlier level-major position
// within the same group); comparators of incomparable cones touch
// disjoint rails, so firing them out of order cannot change what
// either sees.
//
// A consequence used for pruning: a collision witnessed while
// assigning step t depends only on the wires assigned so far, so every
// completion of the current prefix collides — the whole subtree is
// dead, not just the leaf.
func (cz *canonizer) fire(st railState, t int, rank uint8) (railState, bool) {
	st |= railState(rank) << (2 * uint(cz.order[t]))
	for _, p := range cz.trigger[t] {
		sa, sb := st>>p.a&3, st>>p.b&3
		if sa&sb == railState(rankM) {
			return st, false // M-M collision: subtree dead
		}
		// Equal symbols stay in place (EvalTrace convention). A plain
		// branch: a branchless mask swap measured 11-15% slower on the
		// BenchmarkOptimalCanonMemo off and cold legs.
		if sa > sb {
			d := sa ^ sb
			st ^= d<<p.a | d<<p.b
		}
	}
	return st, true
}
