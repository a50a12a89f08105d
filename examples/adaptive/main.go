// Adaptive: Section 5's first extension, as an interactive game.
//
// The paper observes that the lower bound survives even if each level's
// labeling is chosen only after seeing the outcomes of all previous
// comparisons — because the adversary never commits to an input, only
// to a pattern. Here a "builder" plays against core.Incremental: before
// every block it inspects the adversary's surviving set D and aims the
// block at it (routing D onto adjacent slots, where the butterfly's
// low levels compare them first). The per-block survival guarantee of
// Lemma 4.1 holds anyway, and after the legal number of blocks the
// builder still hasn't forced a sorting network.
package main

import (
	"context"
	"fmt"
	"math/rand"

	"shufflenet/internal/bits"
	"shufflenet/internal/core"
	"shufflenet/internal/delta"
	"shufflenet/internal/perm"
)

func main() {
	const n = 256
	l := bits.Lg(n)
	inc := core.NewIncremental(n, 0)
	rng := rand.New(rand.NewSource(3))

	fmt.Printf("adaptive game on %d wires (k = lg n = %d)\n", n, inc.K())
	fmt.Println("builder strategy: before each block, pack the adversary's current")
	fmt.Println("noncolliding set D onto adjacent slots and hit it with a butterfly")
	fmt.Println()

	for b := 0; b < 4; b++ {
		d := inc.D()
		if len(d) < 2 {
			fmt.Printf("block %d: |D| = %d — builder wins this game instance\n", b, len(d))
			break
		}
		// The adaptive move: D-wires to slots 0..|D|-1.
		pre := packFirst(n, d, rng)
		// A Background context never cancels, so AddBlock cannot fail.
		rep, _ := inc.AddBlock(context.Background(), pre, delta.NewForest(delta.Butterfly(l)))
		fmt.Printf("block %d: builder aimed at |D|=%3d  ->  survivors %3d across sets, kept [M_%d] with %3d wires\n",
			b, rep.Before, rep.Survivors, rep.ChosenSet, rep.After)
	}

	d := inc.D()
	fmt.Printf("\nafter the game: |D| = %d — the wires %v have never been compared\n", len(d), d)
	if len(d) >= 2 {
		fmt.Println("the adaptively-built network is still provably not a sorting network")
		fmt.Println("(Lemma 4.1's bound never referenced how the levels were chosen)")
	}
}

// packFirst routes the given wires to the first slots and scatters the
// rest randomly — the most informed single-permutation attack available
// to the builder.
func packFirst(n int, ws []int, rng *rand.Rand) perm.Perm {
	p := make(perm.Perm, n)
	for i := range p {
		p[i] = -1
	}
	for i, w := range ws {
		p[w] = i
	}
	rest := rng.Perm(n - len(ws))
	next := 0
	for w := 0; w < n; w++ {
		if p[w] == -1 {
			p[w] = len(ws) + rest[next]
			next++
		}
	}
	return p
}
