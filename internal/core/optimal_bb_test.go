package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"shufflenet/internal/delta"
	"shufflenet/internal/network"
	"shufflenet/internal/par"
	"shufflenet/internal/pattern"
	"shufflenet/internal/perm"
	"shufflenet/internal/randnet"
)

// bruteOptimalNoncolliding is the pre-branch-and-bound implementation,
// kept verbatim as the oracle: plain 3^n DFS with a from-scratch
// pattern.Noncolliding simulation at every leaf. The new search must
// reproduce its result exactly — size, witnessing pattern, and set.
func bruteOptimalNoncolliding(c *network.Network) (int, pattern.Pattern, []int) {
	n := c.Wires()
	symbols := [3]pattern.Symbol{pattern.S(0), pattern.M(0), pattern.L(0)}
	p := make(pattern.Pattern, n)
	var bestP pattern.Pattern
	var bestSize int
	var rec func(w, mCount int)
	rec = func(w, mCount int) {
		if mCount+(n-w) <= bestSize {
			return
		}
		if w == n {
			if mCount > bestSize && pattern.Noncolliding(c, p, pattern.M(0)) {
				bestSize = mCount
				bestP = p.Clone()
			}
			return
		}
		p[w] = symbols[1]
		rec(w+1, mCount+1)
		p[w] = symbols[0]
		rec(w+1, mCount)
		p[w] = symbols[2]
		rec(w+1, mCount)
	}
	rec(0, 0)
	if bestP == nil {
		bestP = pattern.Uniform(n, pattern.S(0))
		bestP[0] = pattern.M(0)
		bestSize = 1
	}
	return bestSize, bestP, bestP.Set(pattern.M(0))
}

// testCircuits returns a mix of small circuits exercising the search:
// butterflies, sparse and dense random RDNs, and a two-block stack with
// a random inter-block permutation (comparators across distant wires,
// like the A2 workloads).
func testCircuits(maxWires int, rng *rand.Rand) []*network.Network {
	var cs []*network.Network
	for l := 1; l <= 3; l++ {
		if 1<<l > maxWires {
			break
		}
		cs = append(cs, delta.Butterfly(l).ToNetwork())
		cs = append(cs, delta.Random(l, 0.4, rng).ToNetwork())
		cs = append(cs, delta.Random(l, 1.0, rng).ToNetwork())
	}
	if maxWires >= 8 {
		it := delta.NewIterated(8).AddBlock(nil, delta.Butterfly(3))
		it.AddBlock(perm.Random(8, rng), delta.Butterfly(3))
		circ, _ := it.ToNetwork()
		cs = append(cs, circ)
	}
	cs = append(cs, network.New(minInt(6, maxWires))) // comparator-free
	return cs
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestOptimalNoncollidingMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for ci, c := range testCircuits(8, rng) {
		wantSize, wantP, wantSet := bruteOptimalNoncolliding(c)
		gotSize, gotP, gotSet, _ := OptimalNoncollidingOpt(context.Background(), c, OptimalOptions{})
		if gotSize != wantSize {
			t.Fatalf("circuit %d: size %d, oracle %d", ci, gotSize, wantSize)
		}
		if !gotP.Equal(wantP) {
			t.Fatalf("circuit %d: pattern %v, oracle %v", ci, gotP, wantP)
		}
		if len(gotSet) != len(wantSet) {
			t.Fatalf("circuit %d: set %v, oracle %v", ci, gotSet, wantSet)
		}
		for i := range gotSet {
			if gotSet[i] != wantSet[i] {
				t.Fatalf("circuit %d: set %v, oracle %v", ci, gotSet, wantSet)
			}
		}
	}
}

// The worker pool must not change the answer: the packed-incumbent cut
// rule makes the search deterministic for any worker count and any
// scheduling, including which of several maximum-size patterns wins.
func TestOptimalNoncollidingWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := 4
	circs := []*network.Network{
		delta.Butterfly(l).ToNetwork(),
		delta.Random(l, 0.6, rng).ToNetwork(),
	}
	shared := NewMemo(1 << 20)
	for ci, c := range circs {
		s1, p1, set1, err1 := OptimalNoncollidingOpt(context.Background(), c, OptimalOptions{Workers: 1})
		s8, p8, set8, err8 := OptimalNoncollidingOpt(context.Background(), c, OptimalOptions{Workers: 8})
		if err1 != nil || err8 != nil {
			t.Fatalf("circuit %d: unexpected errors %v, %v", ci, err1, err8)
		}
		if s1 != s8 || !p1.Equal(p8) || len(set1) != len(set8) {
			t.Fatalf("circuit %d: workers=1 gives (%d,%v), workers=8 gives (%d,%v)",
				ci, s1, p1, s8, p8)
		}
		for i := range set1 {
			if set1[i] != set8[i] {
				t.Fatalf("circuit %d: sets differ across worker counts", ci)
			}
		}
		// Memo on (workers racing on one shared table), memo off, and
		// a warm shared table must all reproduce the same answer; this
		// is the configuration the memo-differential CI job runs under
		// -race.
		for _, opt := range []OptimalOptions{
			{Workers: 8, Memo: shared},
			{Workers: 8, NoMemo: true},
			{Workers: 1, Memo: shared},
		} {
			sm, pm, setm, errm := OptimalNoncollidingOpt(context.Background(), c, opt)
			if errm != nil {
				t.Fatalf("circuit %d: unexpected error %v", ci, errm)
			}
			if sm != s1 || !pm.Equal(p1) || len(setm) != len(set1) {
				t.Fatalf("circuit %d (memo=%v workers=%d): (%d,%v) differs from (%d,%v)",
					ci, !opt.NoMemo, opt.Workers, sm, pm, s1, p1)
			}
		}
	}
}

func TestOptimalNoncollidingCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := OptimalNoncollidingOpt(ctx, delta.Butterfly(3).ToNetwork(), OptimalOptions{Workers: 2})
	var ce *par.ErrCanceled
	if !asErrCanceled(err, &ce) {
		t.Fatalf("err = %v, want *par.ErrCanceled", err)
	}
}

func asErrCanceled(err error, out **par.ErrCanceled) bool {
	ce, ok := err.(*par.ErrCanceled)
	if ok {
		*out = ce
	}
	return ok
}

// The incremental simulation must agree with the from-scratch
// level-major simulation on every circuit and every pattern: firing
// all wires succeeds iff the pattern's [M_0]-set is noncolliding, and
// on success the final rail symbols equal pattern.Eval's output.
// Exhaustive over all 3^n patterns of the small test circuits.
func TestIncSimDifferentialNoncolliding(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, c := range testCircuits(8, rng) {
		n := c.Wires()
		cz := newCanonizer(c)
		ranks := make([]uint8, n)
		p := make(pattern.Pattern, n)
		total := 1
		for i := 0; i < n; i++ {
			total *= 3
		}
		for idx := 0; idx < total; idx++ {
			for w, rest := 0, idx; w < n; w, rest = w+1, rest/3 {
				ranks[w] = uint8(rest % 3)
				p[w] = rankSymbols[ranks[w]]
			}
			var st railState
			ok := true
			for t := 0; t < n && ok; t++ {
				st, ok = cz.fire(st, t, ranks[cz.order[t]])
			}
			want := pattern.Noncolliding(c, p, pattern.M(0))
			if ok != want {
				t.Fatalf("n=%d pattern %v: fire says %v, Noncolliding says %v", n, p, ok, want)
			}
			if !ok {
				continue
			}
			out := pattern.Eval(c, p)
			for r := 0; r < n; r++ {
				if got := rankSymbols[st.rank(int32(r))]; got != out[r] {
					t.Fatalf("n=%d pattern %v: rail %d holds %v, Eval says %v", n, p, r, got, out[r])
				}
			}
		}
	}
}

// dominatedLoop is the per-rail sibling-dominance test the packed mask
// in dominated replaced, kept as its reference: every live rail of the
// new state equals the snapshot or holds M.
func dominatedLoop(next, snap []uint8, live []int32) bool {
	for _, r := range live {
		if v := next[r]; v != snap[r] && v != rankM {
			return false
		}
	}
	return true
}

func packRanks(sym []uint8) railState {
	var st railState
	for r, v := range sym {
		st |= railState(v) << (2 * uint(r))
	}
	return st
}

// The packed dominance test must agree with the per-rail loop:
// exhaustively over every pair of 4-rail states and every live set,
// and on random near-equal pairs over all 32 rails (the top rail's
// bits are the word's top bits). The canonizer's live masks must be
// its live lists.
func TestIncSimDominanceMask(t *testing.T) {
	check := func(next, snap []uint8, live []int32) bool {
		var mask railState
		for _, r := range live {
			mask |= 3 << (2 * uint(r))
		}
		want := dominatedLoop(next, snap, live)
		if got := dominated(packRanks(next), packRanks(snap), mask); got != want {
			t.Fatalf("next %v snap %v live %v: mask says %v, loop says %v", next, snap, live, got, want)
		}
		return want
	}
	next, snap := make([]uint8, 4), make([]uint8, 4)
	for a := 0; a < 81; a++ {
		for b := 0; b < 81; b++ {
			for r, x, y := 0, a, b; r < 4; r, x, y = r+1, x/3, y/3 {
				next[r], snap[r] = uint8(x%3), uint8(y%3)
			}
			for set := 0; set < 16; set++ {
				var live []int32
				for r := int32(0); r < 4; r++ {
					if set>>r&1 != 0 {
						live = append(live, r)
					}
				}
				check(next, snap, live)
			}
		}
	}

	rng := rand.New(rand.NewSource(45))
	next, snap = make([]uint8, 32), make([]uint8, 32)
	hits := 0
	for trial := 0; trial < 20000; trial++ {
		var live []int32
		for r := range snap {
			snap[r] = uint8(rng.Intn(3))
			next[r] = snap[r]
			if rng.Intn(8) == 0 {
				next[r] = uint8(rng.Intn(3))
			}
			if rng.Intn(2) == 0 {
				live = append(live, int32(r))
			}
		}
		if check(next, snap, live) {
			hits++
		}
	}
	if hits == 0 || hits == 20000 {
		t.Fatalf("random pairs exercised one outcome only (%d/20000 dominated)", hits)
	}

	for ci, c := range testCircuits(16, rand.New(rand.NewSource(46))) {
		cz := newCanonizer(c)
		for bt, live := range cz.liveList {
			var mask railState
			for _, r := range live {
				mask |= 3 << (2 * uint(r))
			}
			if cz.liveMask[bt] != mask {
				t.Fatalf("circuit %d boundary %d: liveMask %#x, live list %v", ci, bt, cz.liveMask[bt], live)
			}
		}
	}
}

// The search tree is pinned: on fixed circuits, a one-worker search
// (private table, and no table) must visit exactly the recorded number
// of nodes, make exactly the recorded dominance cuts and return the
// recorded packed witness. Any change to the assignment order, the
// simulation, the pruning rules or the canonical keys (through memo
// hits) moves these counts; a speedup of the same search does not.
func TestOptimalSearchTreePinned(t *testing.T) {
	fly, _ := delta.NewIterated(16).AddBlock(nil, delta.Butterfly(4)).ToNetwork()
	rng := rand.New(rand.NewSource(1))
	it := delta.NewIterated(16).AddBlock(nil, delta.Random(4, 0.3, rng))
	it.AddBlock(perm.Random(16, rng), delta.Random(4, 0.3, rng))
	iter, _ := it.ToNetwork()
	type count struct{ nodes, cuts int64 }
	for _, tc := range []struct {
		name         string
		c            *network.Network
		packed       uint64
		memo, noMemo count
	}{
		{"dense11", randnet.Levels(11, 8, rand.New(rand.NewSource(1))), 0xffa66a, count{11133, 0}, count{27820, 0}},
		{"dense14", randnet.Levels(14, 8, rand.New(rand.NewSource(2))), 0x4fbbaa6a, count{48442, 0}, count{155552, 0}},
		{"butterfly16", fly, 0x6edeaedd5, count{352, 0}, count{33296, 0}},
		{"iterated16", iter, 0x8ffdd7a79, count{9362, 1226}, count{53653, 5257}},
	} {
		for _, noMemo := range []bool{false, true} {
			want := tc.memo
			if noMemo {
				want = tc.noMemo
			}
			n0, c0 := metOptimalNodes.Value(), metOptimalDomCuts.Value()
			packed, err := OptimalNoncollidingPacked(context.Background(), tc.c, OptimalOptions{Workers: 1, NoMemo: noMemo})
			if err != nil {
				t.Fatal(err)
			}
			got := count{metOptimalNodes.Value() - n0, metOptimalDomCuts.Value() - c0}
			if packed != tc.packed || got != want {
				t.Errorf("%s (noMemo=%v): packed %#x, %d nodes, %d cuts; pinned %#x, %d nodes, %d cuts",
					tc.name, noMemo, packed, got.nodes, got.cuts, tc.packed, want.nodes, want.cuts)
			}
		}
	}
}

// The lemmaRec fork must be invisible: pinning the runtime to one CPU
// and letting it fan out freely must give bit-identical results.
func TestLemma41GOMAXPROCSDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n adversary run")
	}
	n := 4 * parallelSubtree
	tree := delta.Butterfly(lg(n))
	p := pattern.Uniform(n, pattern.M(0))

	old := runtime.GOMAXPROCS(1)
	a, _ := Lemma41(context.Background(), tree, p, lg(n))
	runtime.GOMAXPROCS(old)
	b, _ := Lemma41(context.Background(), tree, p, lg(n))

	if !a.Q.Equal(b.Q) || a.Survivors != b.Survivors {
		t.Fatal("Lemma41 differs between GOMAXPROCS=1 and default")
	}
	for i := range a.OutWire {
		if a.OutWire[i] != b.OutWire[i] {
			t.Fatal("Lemma41 routing differs between GOMAXPROCS=1 and default")
		}
	}
	for i := range a.Sets {
		if len(a.Sets[i]) != len(b.Sets[i]) {
			t.Fatalf("set %d differs between GOMAXPROCS=1 and default", i)
		}
		for j := range a.Sets[i] {
			if a.Sets[i][j] != b.Sets[i][j] {
				t.Fatalf("set %d differs between GOMAXPROCS=1 and default", i)
			}
		}
	}
}
