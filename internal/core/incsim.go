package core

import (
	"shufflenet/internal/pattern"
)

// Symbol ranks for the three-letter alphabet {S_0, M_0, L_0} the
// optimum search enumerates. Compare on these patterns reduces to
// integer comparison of the ranks (S < M < L in <_P), so the
// incremental simulator works on bytes instead of Symbol structs.
const (
	rankS uint8 = 0
	rankM uint8 = 1
	rankL uint8 = 2
)

var rankSymbols = [3]pattern.Symbol{pattern.S(0), pattern.M(0), pattern.L(0)}

// incSim extends a symbol simulation of a circuit one input wire at a
// time, with O(fired comparators) undo — the engine under the
// branch-and-bound in OptimalNoncollidingPacked. The from-scratch
// alternative (pattern.Noncolliding per leaf) re-simulates all
// c.Size() comparators for every enumerated pattern; incSim fires each
// comparator exactly once per DFS branch and rolls it back on
// backtrack.
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
// A consequence used for pruning: a collision (both inputs of a fired
// comparator carrying M) witnessed while assigning step t depends only
// on the wires assigned so far, so every completion of the current
// prefix collides — the whole subtree is dead, not just the leaf.
//
// The static analysis (assignment order, trigger groups, liveness)
// lives in the shared read-only canonizer; incSim is the per-worker
// mutable part: the rail symbols and the undo trail.
type incSim struct {
	cz *canonizer
	// sym[r] is the symbol rank currently on rail r for the fired
	// prefix of the simulation. Rails whose cone contains unassigned
	// wires are never read (their comparators are in later groups).
	sym []uint8
	// trail records fired comparators for backtracking.
	trail []incUndo
}

type incComp struct{ a, b int32 } // rails (a = min rail, b = max rail)

type incUndo struct {
	a, b    int32
	swapped bool
}

// newIncSim attaches fresh simulation state to a canonizer.
func newIncSim(cz *canonizer) *incSim {
	return &incSim{
		cz:    cz,
		sym:   make([]uint8, cz.n),
		trail: make([]incUndo, 0, len(cz.comps)),
	}
}

// mark returns the current trail position; pass it to undo to roll the
// simulation back to this point.
func (s *incSim) mark() int { return len(s.trail) }

// assign sets the input wire of search step t (which must be the next
// unassigned step, with all earlier steps assigned and their trigger
// groups fired) to the given rank and fires the comparators of trigger
// group t. It reports false if any of them collides (sees M on both
// inputs): the caller must then undo to its mark and try another
// branch — every completion of this prefix is colliding. The wire's
// rail still holds its own raw value when the group fires: any
// comparator touching that rail has the wire in its cone, so it is in
// group >= t.
func (s *incSim) assign(t int, rank uint8) bool {
	s.sym[s.cz.order[t]] = rank
	for _, ci := range s.cz.trigger[t] {
		cm := s.cz.comps[ci]
		sa, sb := s.sym[cm.a], s.sym[cm.b]
		if sa == sb {
			if sa == rankM {
				return false // M-M collision: subtree dead
			}
			// Equal non-M symbols stay in place (EvalTrace convention);
			// nothing to record beyond the no-op.
			s.trail = append(s.trail, incUndo{a: cm.a, b: cm.b, swapped: false})
			continue
		}
		swapped := sa > sb
		if swapped {
			s.sym[cm.a], s.sym[cm.b] = sb, sa
		}
		s.trail = append(s.trail, incUndo{a: cm.a, b: cm.b, swapped: swapped})
	}
	return true
}

// undo rolls the simulation back to a previous mark, unswapping fired
// comparators in reverse order.
func (s *incSim) undo(mark int) {
	for i := len(s.trail) - 1; i >= mark; i-- {
		u := s.trail[i]
		if u.swapped {
			s.sym[u.a], s.sym[u.b] = s.sym[u.b], s.sym[u.a]
		}
	}
	s.trail = s.trail[:mark]
}
