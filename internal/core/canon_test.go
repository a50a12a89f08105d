package core

import (
	"context"
	"math/rand"
	"testing"

	"shufflenet/internal/delta"
	"shufflenet/internal/network"
	"shufflenet/internal/pattern"
)

// Every discovered symmetry must map each level's directed comparator
// set onto itself (mirrors: onto the direction-reversed set). This
// re-verifies with an independent lookup structure, so a bug in the
// search's own verify step cannot hide.
func TestCanonizerAutosVerified(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	total := 0
	for ci, c := range testCircuits(16, rng) {
		cz := newCanonizer(c)
		total += len(cz.autos)
		for ai, a := range cz.autos {
			for _, lv := range c.Levels() {
				have := make(map[[2]int32]bool)
				for _, cm := range lv {
					have[[2]int32{int32(cm.Min), int32(cm.Max)}] = true
				}
				for _, cm := range lv {
					img := [2]int32{a.perm[cm.Min], a.perm[cm.Max]}
					if a.mirror {
						img[0], img[1] = img[1], img[0]
					}
					if !have[img] {
						t.Fatalf("circuit %d auto %d (mirror=%v): (%d,%d) -> (%d,%d) is not a comparator",
							ci, ai, a.mirror, cm.Min, cm.Max, img[0], img[1])
					}
				}
			}
			// perm must be a permutation.
			seen := make([]bool, cz.n)
			for _, v := range a.perm {
				if seen[v] {
					t.Fatalf("circuit %d auto %d: not a permutation", ci, ai)
				}
				seen[v] = true
			}
		}
	}
	if total == 0 {
		t.Fatal("no symmetries discovered on any structured test circuit (butterflies have plenty)")
	}
}

// transportState fires p from the empty state up to a boundary and
// reports the rail state, or false if some prefix comparator collides.
func transportState(cz *canonizer, p []uint8, t int) (railState, bool) {
	var st railState
	for s := 0; s < t; s++ {
		var ok bool
		if st, ok = cz.fire(st, s, p[cz.order[s]]); !ok {
			return 0, false
		}
	}
	return st, true
}

// Canonical keys must be invariant under the discovered symmetries:
// assigning a pattern and assigning its relabeled (and, for mirrors,
// S<->L-flipped) image reach residual states with identical keys at
// every stabilized boundary.
func TestCanonicalKeyInvariantUnderAutos(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for ci, c := range testCircuits(16, rng) {
		cz := newCanonizer(c)
		if len(cz.autos) == 0 {
			continue
		}
		n := cz.n
		scratch := make([]uint8, n)
		for trial := 0; trial < 50; trial++ {
			p := make([]uint8, n)
			for w := range p {
				p[w] = uint8(rng.Intn(3))
			}
			for _, a := range cz.autos {
				q := make([]uint8, n)
				for w := range p {
					v := p[w]
					if a.mirror {
						v = 2 - v
					}
					q[a.perm[w]] = v
				}
				for bt := 1; bt <= n; bt++ {
					if !a.stab[bt] || !cz.probeAt[bt] {
						continue
					}
					sp, okp := transportState(cz, p, bt)
					sq, okq := transportState(cz, q, bt)
					if okp != okq {
						t.Fatalf("circuit %d: collision verdict not transported at boundary %d", ci, bt)
					}
					if !okp {
						continue
					}
					h1p, h2p := cz.key(bt, sp, scratch)
					h1q, h2q := cz.key(bt, sq, scratch)
					if h1p != h1q || h2p != h2q {
						t.Fatalf("circuit %d boundary %d (mirror=%v): canonical keys differ", ci, bt, a.mirror)
					}
				}
			}
		}
	}
}

// relabelNetwork applies a wire permutation to every comparator,
// preserving directions: the relabeled network computes the same
// function up to renaming, so its optimum must be identical.
func relabelNetwork(c *network.Network, sigma []int) *network.Network {
	out := network.New(c.Wires())
	for _, lv := range c.Levels() {
		nl := make(network.Level, 0, len(lv))
		for _, cm := range lv {
			nl = append(nl, network.Comparator{Min: sigma[cm.Min], Max: sigma[cm.Max]})
		}
		out.AddLevel(nl)
	}
	return out
}

// FuzzCanonicalRelabel drives the symmetry machinery end to end: a
// fuzz-chosen small network is relabeled by a fuzz-chosen wire
// permutation and both optima must agree (the canonical layer may
// never make the answer depend on wire names); and on the original
// network, canonical keys must be invariant under every discovered
// automorphism for a fuzz-chosen pattern.
func FuzzCanonicalRelabel(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3))
	f.Add(int64(7), uint8(6), uint8(5))
	f.Add(int64(99), uint8(10), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, nRaw, depthRaw uint8) {
		n := 2 + int(nRaw)%9         // 2..10
		depth := 1 + int(depthRaw)%5 // 1..5
		rng := rand.New(rand.NewSource(seed))
		c := network.New(n)
		for d := 0; d < depth; d++ {
			lv := make(network.Level, 0, n/2)
			used := make([]bool, n)
			for k := 0; k < n/2; k++ {
				a, b := rng.Intn(n), rng.Intn(n)
				if a == b || used[a] || used[b] {
					continue
				}
				used[a], used[b] = true, true
				if rng.Intn(2) == 0 {
					a, b = b, a
				}
				lv = append(lv, network.Comparator{Min: a, Max: b})
			}
			if len(lv) > 0 {
				c.AddLevel(lv)
			}
		}
		sigma := rng.Perm(n)
		sizeA, pA, _, _ := OptimalNoncollidingOpt(context.Background(), c, OptimalOptions{})
		sizeB, _, _, _ := OptimalNoncollidingOpt(context.Background(), relabelNetwork(c, sigma), OptimalOptions{})
		if sizeA != sizeB {
			t.Fatalf("optimum changed under relabeling: %d vs %d", sizeA, sizeB)
		}
		if !pattern.Noncolliding(c, pA, pattern.M(0)) {
			t.Fatalf("witness is colliding")
		}

		cz := newCanonizer(c)
		if len(cz.autos) == 0 {
			return
		}
		scratch := make([]uint8, n)
		p := make([]uint8, n)
		for w := range p {
			p[w] = uint8(rng.Intn(3))
		}
		for _, a := range cz.autos {
			q := make([]uint8, n)
			for w := range p {
				v := p[w]
				if a.mirror {
					v = 2 - v
				}
				q[a.perm[w]] = v
			}
			for bt := 1; bt <= n; bt++ {
				if !a.stab[bt] || !cz.probeAt[bt] {
					continue
				}
				sp, okp := transportState(cz, p, bt)
				sq, okq := transportState(cz, q, bt)
				if okp != okq {
					t.Fatalf("collision verdict not transported at boundary %d", bt)
				}
				if !okp {
					continue
				}
				h1p, h2p := cz.key(bt, sp, scratch)
				h1q, h2q := cz.key(bt, sq, scratch)
				if h1p != h1q || h2p != h2q {
					t.Fatalf("canonical keys differ at boundary %d (mirror=%v)", bt, a.mirror)
				}
			}
		}
	})
}

// The cone-closing assignment order must be a permutation, and the
// trigger schedule must fire every comparator exactly once.
func TestCanonizerScheduleComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for ci, c := range testCircuits(16, rng) {
		cz := newCanonizer(c)
		seen := make([]bool, cz.n)
		for _, w := range cz.order {
			if seen[w] {
				t.Fatalf("circuit %d: wire %d assigned twice", ci, w)
			}
			seen[w] = true
		}
		fired := 0
		for _, g := range cz.trigger {
			fired += len(g)
		}
		if fired != c.Size() {
			t.Fatalf("circuit %d: %d comparators fired, have %d", ci, fired, c.Size())
		}
		// The butterfly block is deep enough that a cone-closing order
		// must fire something before the last wire.
		if c.Size() > 0 && len(cz.trigger[cz.n-1]) == c.Size() {
			t.Logf("circuit %d: all comparators fire at the last step (degenerate order)", ci)
		}
	}
}

// A sanity anchor for the capacity bound: on a single level of
// disjoint comparators every pair is a direct pair, so capInit = n/2,
// and indeed no noncolliding set can use both ends of any comparator.
func TestCanonizerDirectPairs(t *testing.T) {
	c := delta.Butterfly(3).ToNetwork()
	cz := newCanonizer(c)
	pairs := 0
	for w, p := range cz.partner {
		if p >= 0 {
			if cz.partner[p] != int32(w) {
				t.Fatalf("partner not symmetric at wire %d", w)
			}
			pairs++
		}
	}
	if pairs != 8 { // first butterfly level pairs all 8 wires
		t.Fatalf("butterfly(3): %d paired wires, want 8", pairs)
	}
	if cz.capInit != 8-4 {
		t.Fatalf("capInit = %d, want 4", cz.capInit)
	}
}
