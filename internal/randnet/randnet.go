// Package randnet builds the randomized comparator networks of
// Section 5: networks that augment comparators with the
// Leighton–Plaxton "randomizing" element — a switch that exchanges its
// inputs with probability 1/2 — and the shuffle-based nearly-sorting
// networks whose existence bounds what the paper's worst-case lower
// bound can say about average-case and randomized complexity.
//
// A randomized network is sampled at construction time: each call with
// a fresh rng yields one deterministic instance (the random bits become
// fixed "0"/"1" elements), which is exactly how the paper's model
// treats randomization — see DESIGN.md for the substitution notes
// regarding the full Leighton–Plaxton construction.
package randnet

import (
	"math/rand"

	"shufflenet/internal/bits"
	"shufflenet/internal/network"
	"shufflenet/internal/perm"
	"shufflenet/internal/shuffle"
)

// Randomizer appends one shuffle step whose pairs are exchanged with
// probability 1/2 (the Section 5 randomizing element, sampled): a
// shuffle-based scrambling stage containing no comparators.
func Randomizer(r *network.Register, rng *rand.Rand) {
	n := r.Registers()
	ops := make([]network.Op, n/2)
	for k := range ops {
		if rng.Intn(2) == 0 {
			ops[k] = network.OpSwap
		}
	}
	r.AddStep(network.Step{Pi: perm.Shuffle(n), Ops: ops})
}

// ScramblePasses returns a shuffle-based register network of `passes`
// full shuffle passes of randomizing elements: depth passes·lg n, no
// comparators. Composing it before a deterministic network turns that
// network into a randomized sorter instance in the paper's sense.
func ScramblePasses(n, passes int, rng *rand.Rand) *network.Register {
	d := bits.Lg(n)
	r := network.NewRegister(n)
	for p := 0; p < passes*d; p++ {
		Randomizer(r, rng)
	}
	return r
}

// ButterflyPasses returns a shuffle-based register network of `passes`
// consecutive butterfly passes with all comparators ascending: depth
// passes·lg n. One pass routes extremes to the ends; a handful of
// passes nearly sorts most inputs while remaining well below the
// Ω(lg²n/lg lg n) sorting bound — the average-case phenomenon of
// Section 5.
func ButterflyPasses(n, passes int) *network.Register {
	r := network.NewRegister(n)
	for p := 0; p < passes; p++ {
		shuffle.Pass(r, func(t, u int) network.Op { return network.OpPlus })
	}
	return r
}

// RandomizedButterfly returns a shuffle-based instance combining one
// randomizing pass with `passes` butterfly comparator passes: the
// cheapest member of the Leighton–Plaxton family our substitution
// covers. Depth (passes+1)·lg n.
func RandomizedButterfly(n, passes int, rng *rand.Rand) *network.Register {
	r := ScramblePasses(n, 1, rng)
	for p := 0; p < passes; p++ {
		shuffle.Pass(r, func(t, u int) network.Op { return network.OpPlus })
	}
	return r
}

// TruncatedBitonic returns the first `steps` shuffle steps of Stone's
// bitonic sorter on n registers (steps <= lg²n): the canonical
// "shallow shuffle-based network" for sorted-fraction-vs-depth curves.
func TruncatedBitonic(n, steps int) *network.Register {
	return shuffle.Bitonic(n).Truncate(steps)
}

// Levels returns a dense random circuit on n wires (n even, any value —
// no power-of-two constraint): depth levels, each a uniformly random
// perfect matching of the wires with uniformly random comparator
// directions, so the circuit has depth·n/2 comparators. These are the
// adversarially unstructured instances of the optimum-search worst
// case (core.MaxOptimalWires is calibrated against them):
// their noncolliding optimum is small and their wire-relabeling
// automorphism group is almost surely trivial, so every pruning rule
// has to earn its keep.
func Levels(n, depth int, rng *rand.Rand) *network.Network {
	c := network.New(n)
	lv := make(network.Level, 0, n/2) // AddLevel copies it
	for d := 0; d < depth; d++ {
		p := perm.Random(n, rng)
		lv = lv[:0]
		for i := 0; i+1 < n; i += 2 {
			a, b := p[i], p[i+1]
			if rng.Intn(2) == 0 {
				a, b = b, a
			}
			lv = append(lv, network.Comparator{Min: a, Max: b})
		}
		c.AddLevel(lv)
	}
	return c
}
