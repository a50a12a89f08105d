package delta

import (
	"context"
	"slices"

	"shufflenet/internal/bits"
	"shufflenet/internal/network"
	"shufflenet/internal/par"
	"shufflenet/internal/perm"
)

// Decompose recovers the recursive reverse delta structure of a
// circuit, if it has one: it returns an l-level Network d and a rail
// assignment railOf (slot → circuit rail) such that for every input x
// over rails,
//
//	d.Eval(slotView(x))[s] == c.Eval(x)[railOf[s]],
//
// where slotView(x)[s] = x[railOf[s]]. ok is false when the circuit is
// not a reverse delta network (same criterion as IsReverseDelta).
//
// The result is canonical: every choice the recovery makes (which
// bipartition, which side is first) is taken in rail order, so one
// circuit always yields the same structure and rail assignment.
//
// Decompose is what lets the lower-bound adversary attack networks
// given only as circuits (e.g. loaded from a file): the adversary
// recurses on the recovered structure.
func Decompose(c *network.Network) (d *Network, railOf []int, ok bool) {
	if !bits.IsPow2(c.Wires()) {
		return nil, nil, false
	}
	d, railOf, ok, _ = decomposeLevels(context.Background(), c.Levels(), c.Wires())
	return d, railOf, ok
}

// DecomposeIterated recovers a (k, l)-iterated reverse delta structure
// from a circuit of depth k·l: it cuts the circuit into k consecutive
// l-level segments, decomposes each, and chains them with the
// permutations that reconcile consecutive segments' rail assignments.
// The returned Iterated's slot space for inputs and outputs is the
// circuit's rail space:
//
//	it.Eval(x)[railAt[s]] — use ToNetwork's placement for exact output
//	correspondence; inputs are taken rail-indexed directly.
//
// ok is false if the depth is not a multiple of l or any segment is not
// a reverse delta network. Like Decompose, the result is canonical.
// DecomposeIterated is DecomposeIteratedCtx under context.Background().
func DecomposeIterated(c *network.Network, l int) (*Iterated, bool) {
	it, ok, _ := DecomposeIteratedCtx(context.Background(), c, l)
	return it, ok
}

// DecomposeIteratedCtx is DecomposeIterated under a context, checked
// once per recursive step of a segment's decomposition and once per
// step of each split search within it: the split search backtracks
// over bipartition choices, which can take minutes on sparse blocks
// between two decomposition steps, so its checks are the ones that
// bound the wait. On cancellation it returns a *par.ErrCanceled
// (Op "delta.DecomposeIterated", BlocksDone the segments decomposed)
// and no structure.
func DecomposeIteratedCtx(ctx context.Context, c *network.Network, l int) (*Iterated, bool, error) {
	n := c.Wires()
	if !bits.IsPow2(n) || l < 1 || c.Depth()%l != 0 {
		return nil, false, nil
	}
	blocks := c.Depth() / l
	it := NewIterated(n)
	prevRailOf := perm.Identity(n) // block 0 receives rail-indexed data
	for b := 0; b < blocks; b++ {
		d, railOf, ok, err := decomposeLevels(ctx, c.Levels()[b*l:(b+1)*l], n)
		if err != nil {
			return nil, false, &par.ErrCanceled{Op: "delta.DecomposeIterated", Cause: err, BlocksDone: b}
		}
		if !ok {
			return nil, false, nil
		}
		// pre[s] = slot of this block receiving the value that block
		// b-1 left at its slot s (which lives on rail prevRailOf[s]).
		inv := make([]int, n) // rail -> slot of this block
		for s, r := range railOf {
			inv[r] = s
		}
		pre := make(perm.Perm, n)
		for s := 0; s < n; s++ {
			pre[s] = inv[prevRailOf[s]]
		}
		it.AddBlock(pre, d)
		prevRailOf = railOf
	}
	return it, true, nil
}

// decomposeLevels decomposes the l = len(levels) levels of a circuit
// on n = 2^l wires. err is the context's error when it ended the
// search.
func decomposeLevels(ctx context.Context, levels []network.Level, n int) (*Network, []int, bool, error) {
	l := len(levels)
	if 1<<uint(l) != n {
		return nil, nil, false, nil
	}
	dc := &decomposer{
		ctx:    ctx,
		done:   ctx.Done(),
		levels: levels,
		n:      n,
		at:     make([]int32, l*n),
		mark:   make([]int, n),
		uf:     make([]int32, n),
		comp:   make([]int32, n),
		slot:   make([]int32, n),
	}
	for i := range dc.at {
		dc.at[i] = -1
	}
	for li, lv := range levels {
		at := dc.at[li*n : (li+1)*n]
		for j, cm := range lv {
			at[cm.Min], at[cm.Max] = int32(j), int32(j)
		}
	}
	rails := make([]int, n)
	for i := range rails {
		rails[i] = i
	}
	d, railOf, ok := dc.decompose(rails, l)
	return d, railOf, ok, dc.err
}

// decomposer holds one circuit's comparators indexed by wire, so that
// each step of the recursion visits only its own rails' comparators,
// and per-wire scratch that the steps share. Sibling steps own disjoint
// rails. A step uses its rails' entries of mark, uf and comp before it
// recurses, and slot and a fresh mark stamp only after its children
// return, so the children may overwrite what it no longer reads.
type decomposer struct {
	ctx    context.Context
	done   <-chan struct{} // nil for a context that is never done
	err    error           // the context's error once a step saw it done
	levels []network.Level
	n      int
	at     []int32 // at[li*n+w]: index in levels[li] of w's comparator, or -1
	mark   []int   // mark[w] == stamp: w is a rail of the current step
	stamp  int
	uf     []int32 // union-find parent of each rail
	comp   []int32 // component number of each union-find root
	slot   []int32 // slot of each rail within its sub-network
}

// stopped reports whether the search must end. Each recursive step,
// of the decomposition or of a split search within it, checks the
// context once (a nil check for a context that is never done), and
// the first step to see it done records its error.
func (dc *decomposer) stopped() bool { return dc.done != nil && dc.ctxDone() }

func (dc *decomposer) ctxDone() bool {
	if dc.err != nil {
		return true
	}
	select {
	case <-dc.done:
		dc.err = dc.ctx.Err()
		return true
	default:
		return false
	}
}

func (dc *decomposer) find(x int) int {
	for int(dc.uf[x]) != x {
		dc.uf[x] = dc.uf[dc.uf[x]]
		x = int(dc.uf[x])
	}
	return x
}

// partner returns the rail that w's comparator at level li connects it
// to and the comparator's index in the level, or -1, -1 if w idles
// there.
func (dc *decomposer) partner(li, w int) (other, j int) {
	j = int(dc.at[li*dc.n+w])
	if j < 0 {
		return -1, -1
	}
	cm := dc.levels[li][j]
	return cm.Min + cm.Max - w, j
}

// decompose recovers an l-level RDN on the given rails: the first l-1
// levels must join the rails into components that the last level's
// comparators 2-colour, and some choice of colour per connected group
// must split the rails in half, each half an (l-1)-level RDN.
// Components are numbered, and groups explored, in the order of their
// first rail; the last level is read in level order. A canceled search
// fails every step from the one that saw the context done.
//
// The split search backtracks over the groups' colourings, a subset
// sum with no bound on its dead ends: on sparse blocks, with many
// small groups, it can run for minutes between two decomposition
// steps.
func (dc *decomposer) decompose(rails []int, l int) (*Network, []int, bool) {
	if dc.stopped() {
		return nil, nil, false
	}
	if l == 0 {
		if len(rails) != 1 {
			return nil, nil, false
		}
		return Leaf(), rails[:1:1], true
	}
	if len(rails) != 1<<uint(l) {
		return nil, nil, false
	}
	dc.stamp++
	for _, r := range rails {
		dc.mark[r] = dc.stamp
		dc.uf[r] = int32(r)
	}
	for li := 0; li < l-1; li++ {
		for _, r := range rails {
			other, _ := dc.partner(li, r)
			if other < 0 {
				continue
			}
			if dc.mark[other] != dc.stamp {
				return nil, nil, false
			}
			dc.uf[dc.find(r)] = int32(dc.find(other))
		}
	}
	var last []int // the last level's comparators on these rails, by index
	for _, r := range rails {
		other, j := dc.partner(l-1, r)
		if other < 0 {
			continue
		}
		if dc.mark[other] != dc.stamp {
			return nil, nil, false
		}
		if r < other {
			last = append(last, j)
		}
	}
	slices.Sort(last)
	lastLv := dc.levels[l-1]

	// members[k] are component k's rails, in rail order; components
	// are numbered in the order of their first rail.
	for _, r := range rails {
		dc.comp[dc.find(r)] = -1
	}
	var members [][]int
	for _, r := range rails {
		root := dc.find(r)
		if dc.comp[root] < 0 {
			dc.comp[root] = int32(len(members))
			members = append(members, nil)
		}
		k := dc.comp[root]
		members[k] = append(members[k], r)
	}
	// adj[k] are the components the last level joins component k to,
	// in level order.
	adj := make([][]int32, len(members))
	for _, j := range last {
		a, b := dc.comp[dc.find(lastLv[j].Min)], dc.comp[dc.find(lastLv[j].Max)]
		if a == b {
			return nil, nil, false
		}
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}

	// 2-colour each connected group breadth first; order lists the
	// components group by group, groupAt[g] where group g starts.
	color := make([]int8, len(members))
	visited := make([]bool, len(members))
	order := make([]int32, 0, len(members))
	groupAt := []int{0}
	type group struct{ size0, size1 int }
	var groups []group
	for k := range members {
		if visited[k] {
			continue
		}
		visited[k] = true
		color[k] = 0
		g := group{}
		head := len(order)
		order = append(order, int32(k))
		for ; head < len(order); head++ {
			x := order[head]
			if size := len(members[x]); color[x] == 0 {
				g.size0 += size
			} else {
				g.size1 += size
			}
			for _, y := range adj[x] {
				if !visited[y] {
					visited[y] = true
					color[y] = 1 - color[x]
					order = append(order, y)
				} else if color[y] == color[x] {
					return nil, nil, false
				}
			}
		}
		groups = append(groups, g)
		groupAt = append(groupAt, len(order))
	}

	half := len(rails) / 2
	// most[i] is the largest number of rails groups i.. can put on side 0.
	most := make([]int, len(groups)+1)
	for i := len(groups) - 1; i >= 0; i-- {
		most[i] = most[i+1] + max(groups[i].size0, groups[i].size1)
	}
	flips := make([]bool, len(groups))
	var result *Network
	var resultRails []int
	var try func(i, side0 int) bool
	try = func(i, side0 int) bool {
		if side0 > half || side0+most[i] < half || dc.stopped() {
			return false
		}
		if i == len(groups) {
			if side0 != half {
				return false
			}
			side := [2][]int{make([]int, 0, half), make([]int, 0, half)}
			for gi, flip := range flips {
				for _, x := range order[groupAt[gi]:groupAt[gi+1]] {
					s := color[x]
					if flip {
						s = 1 - s
					}
					side[s] = append(side[s], members[x]...)
				}
			}
			sub0, rails0, ok0 := dc.decompose(side[0], l-1)
			if !ok0 {
				return false
			}
			sub1, rails1, ok1 := dc.decompose(side[1], l-1)
			if !ok1 {
				return false
			}
			// Output-slot index of each rail within its sub-network; a
			// fresh stamp marks side 1.
			dc.stamp++
			for s, r := range rails0 {
				dc.slot[r] = int32(s)
			}
			for s, r := range rails1 {
				dc.slot[r] = int32(s)
				dc.mark[r] = dc.stamp
			}
			final := make([]Comp, 0, len(last))
			for _, j := range last {
				// One endpoint per side (guaranteed above).
				r0, r1 := lastLv[j].Min, lastLv[j].Max
				minFirst := true
				if dc.mark[r0] == dc.stamp {
					r0, r1 = r1, r0
					minFirst = false
				}
				final = append(final, Comp{O0: int(dc.slot[r0]), O1: int(dc.slot[r1]), MinFirst: minFirst})
			}
			result = Combine(sub0, sub1, final)
			resultRails = append(append(make([]int, 0, len(rails)), rails0...), rails1...)
			return true
		}
		flips[i] = false
		if try(i+1, side0+groups[i].size0) {
			return true
		}
		flips[i] = true
		return try(i+1, side0+groups[i].size1)
	}
	if !try(0, 0) {
		return nil, nil, false
	}
	return result, resultRails, true
}
