// Anatomy: Lemma 4.1 under a microscope.
//
// We run the constructive lemma on a small reverse delta network and on
// each of its sub-networks, printing the collections of noncolliding
// [M_i]-sets the adversary maintains — the "special sets" of Section 2
// — so the matching-and-recombination step is visible in the data: at
// every level the two sub-collections merge into one, the number of
// sets grows slightly, the total number of tracked wires barely drops,
// and the output pattern stays a refinement of the input pattern.
package main

import (
	"context"
	"fmt"
	"math/rand"

	"shufflenet/internal/core"
	"shufflenet/internal/delta"
	"shufflenet/internal/pattern"
)

func main() {
	const l = 3 // 8 slots
	rng := rand.New(rand.NewSource(20))
	tree := delta.Random(l, 1.0, rng)
	k := 2

	fmt.Printf("random %d-level reverse delta network on %d slots, k = %d\n", l, tree.Inputs(), k)
	fmt.Printf("t(l) = k³ + l·k² allows up to %d sets at the root\n\n", k*k*k+l*k*k)

	// Walk the left spine of the recursion: leaf, 1-level, 2-level, root.
	for lvl := 1; lvl <= l; lvl++ {
		sub := tree
		for i := 0; i < l-lvl; i++ {
			sub = sub.Sub(0)
		}
		p := pattern.Uniform(sub.Inputs(), pattern.M(0))
		// A Background context never cancels, so Lemma41 cannot fail.
		res, _ := core.Lemma41(context.Background(), sub, p, k)
		fmt.Printf("%d-level sub-network (%d slots): |A| = %d -> |B| = %d across %d nonempty sets\n",
			lvl, sub.Inputs(), res.Initial, res.Survivors, res.SetCount())
		for i, ws := range res.Sets {
			if len(ws) == 0 {
				continue
			}
			fmt.Printf("   [M_%d] = slots %v\n", i, ws)
		}
		fmt.Printf("   refined pattern: %v\n\n", res.Q)
	}

	// The root run, with the independent noncollision verification the
	// test suite uses.
	p := pattern.Uniform(tree.Inputs(), pattern.M(0))
	res, _ := core.Lemma41(context.Background(), tree, p, k)
	circ := tree.ToNetwork()
	fmt.Println("root collections verified noncolliding by symbol simulation:")
	for i, ws := range res.Sets {
		if len(ws) == 0 {
			continue
		}
		ok := pattern.Noncolliding(circ, res.Q, pattern.M(i))
		fmt.Printf("   [M_%d] (%d wires): noncolliding = %v\n", i, len(ws), ok)
	}
	idx, largest := res.LargestSet()
	fmt.Printf("\nTheorem 4.1 would now keep [M_%d] (%d wires), rename it to M_0\n", idx, len(largest))
	fmt.Println("(Lemma 3.4), and push it into the next block.")
}
