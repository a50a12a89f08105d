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

// The incremental simulator must agree with the from-scratch
// level-major simulation on every circuit and pattern: assigning all
// wires succeeds iff the pattern's [M_0]-set is noncolliding, and on
// success the final rail symbols equal pattern.Eval's output.
func TestIncSimDifferentialNoncolliding(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, c := range testCircuits(16, rng) {
		n := c.Wires()
		cz := newCanonizer(c)
		sim := newIncSim(cz)
		for trial := 0; trial < 200; trial++ {
			p := make(pattern.Pattern, n)
			ranks := make([]uint8, n)
			for w := range p {
				r := uint8(rng.Intn(3))
				ranks[w] = r
				p[w] = rankSymbols[r]
			}
			sim.undo(0)
			ok := true
			for t := 0; t < n && ok; t++ {
				ok = sim.assign(t, ranks[cz.order[t]])
			}
			want := pattern.Noncolliding(c, p, pattern.M(0))
			if ok != want {
				t.Fatalf("n=%d pattern %v: incSim says %v, Noncolliding says %v", n, p, ok, want)
			}
			if !ok {
				continue
			}
			out := pattern.Eval(c, p)
			for r := 0; r < n; r++ {
				if rankSymbols[sim.sym[r]] != out[r] {
					t.Fatalf("n=%d pattern %v: rail %d holds %v, Eval says %v",
						n, p, r, rankSymbols[sim.sym[r]], out[r])
				}
			}
		}
	}
}

// Undo must restore the simulation exactly: after a random sequence of
// assigns and rollbacks, re-extending a prefix behaves as if freshly
// assigned on a new simulator.
func TestIncSimUndoRestores(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	c := delta.Random(4, 0.8, rng).ToNetwork()
	n := c.Wires()
	cz := newCanonizer(c)
	sim := newIncSim(cz)
	for trial := 0; trial < 100; trial++ {
		// Build a random prefix with detours: at each step, try a
		// random rank, maybe undo it and commit a different one.
		sim.undo(0)
		ranks := make([]uint8, 0, n)
		live := true
		for t := 0; t < n && live; t++ {
			if detour := uint8(rng.Intn(3)); rng.Intn(2) == 0 {
				mark := sim.mark()
				sim.assign(t, detour)
				sim.undo(mark)
			}
			r := uint8(rng.Intn(3))
			ranks = append(ranks, r)
			live = sim.assign(t, r)
		}
		// Replay the committed ranks on a fresh simulator: same verdict,
		// same state.
		fresh := newIncSim(cz)
		freshLive := true
		for t := 0; t < len(ranks) && freshLive; t++ {
			freshLive = fresh.assign(t, ranks[t])
		}
		if live != freshLive {
			t.Fatalf("trial %d: detoured sim says %v, fresh says %v", trial, live, freshLive)
		}
		if live {
			for r := 0; r < n; r++ {
				if sim.sym[r] != fresh.sym[r] {
					t.Fatalf("trial %d: rail %d differs after undo", trial, r)
				}
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
