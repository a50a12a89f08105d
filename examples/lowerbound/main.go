// Lowerbound: the paper's main theorem as a runnable program.
//
// We stack two full butterfly blocks (with a random permutation between
// them — exactly the freedom the paper's model grants), run the
// constructive adversary of Section 4, extract the Corollary 4.1.1
// certificate, and verify it by replaying both inputs through the
// network: the two inputs are routed identically and differ in a pair
// of adjacent values that are never compared, so the network provably
// cannot sort.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"shufflenet/internal/bits"
	"shufflenet/internal/core"
	"shufflenet/internal/delta"
	"shufflenet/internal/perm"
)

func main() {
	const n = 256
	d := bits.Lg(n)
	rng := rand.New(rand.NewSource(42))

	it := delta.NewIterated(n)
	it.AddBlock(nil, delta.Butterfly(d))
	it.AddBlock(perm.Random(n, rng), delta.Butterfly(d))
	fmt.Printf("network: 2 butterfly blocks on %d wires, comparator depth %d, size %d\n",
		n, it.Depth(), it.Size())

	// A Background context never cancels, so the run cannot fail.
	an, _ := core.Theorem41Ctx(context.Background(), it, 0)
	fmt.Printf("\nadversary (k = lg n = %d):\n", an.K)
	for _, rep := range an.Reports {
		fmt.Printf("  block %d: tracked set %d -> %d survivors across noncolliding sets -> kept [M_%d] of size %d\n",
			rep.Block, rep.Before, rep.Survivors, rep.ChosenSet, rep.After)
	}
	fmt.Printf("final noncolliding set D: %d wires %v\n", len(an.D), an.D)

	cert, err := an.Certificate()
	if err != nil {
		log.Fatalf("no certificate: %v", err)
	}
	fmt.Printf("\ncertificate: wires %d and %d carry the adjacent values %d and %d\n",
		cert.W0, cert.W1, cert.M, cert.M+1)

	circ, _ := it.ToNetwork()
	if err := cert.Verify(circ); err != nil {
		log.Fatalf("verification failed: %v", err)
	}
	fmt.Println("verified: the network performs the same permutation on π and π′")
	fmt.Println("          and never compares the two adjacent values —")
	fmt.Println("          it cannot sort both inputs. NOT a sorting network.")

	fmt.Printf("\n(The paper: any shuffle-based sorting network needs depth Ω(lg²n/lg lg n);\n")
	fmt.Printf(" here lg n/(4 lg lg n) ≈ %.2f blocks are provably insufficient.)\n",
		float64(d)/(4*math.Log2(float64(d))))
}
