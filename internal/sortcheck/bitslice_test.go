// Differential tests for the bit-sliced 0-1 kernel: every exhaustive
// checker must return byte-identical verdicts, witnesses, and fractions
// whether it runs on the compiled SWAR path (Compilable evaluators) or
// falls back to the scalar path (the opaque wrapper below hides
// Compile, so the tests cover the dispatch too). The external test
// package lets us pull in the real constructions (bitonic, odd-even,
// random RDNs, shuffle registers) without import cycles.
package sortcheck_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"shufflenet/internal/delta"
	"shufflenet/internal/netbuild"
	"shufflenet/internal/network"
	"shufflenet/internal/shuffle"
	"shufflenet/internal/sortcheck"
)

// opaque hides the Compilable interface, forcing the scalar fallback.
type opaque struct{ ev sortcheck.Evaluator }

func (o opaque) Eval(in []int) []int { return o.ev.Eval(in) }

// brokenBitonic returns a sorter (merge-exchange, any width) with one
// comparator deleted from the middle level — a deliberately
// almost-correct non-sorter whose witnesses are sparse.
func brokenBitonic(n int) *network.Network {
	full := netbuild.MergeExchange(n)
	c := network.New(n)
	for i, lv := range full.Levels() {
		if i == full.Depth()/2 && len(lv) > 0 {
			lv = lv[1:]
		}
		c.AddLevel(lv)
	}
	return c
}

// suite returns the networks the kernel must agree with the oracle on:
// sorters, shallow non-sorters, random RDNs, and broken sorters.
func suite(n int, rng *rand.Rand) map[string]sortcheck.Evaluator {
	l := 0
	for 1<<l < n {
		l++
	}
	evs := map[string]sortcheck.Evaluator{
		"merge-exchange": netbuild.MergeExchange(n),
		"broken-sorter":  brokenBitonic(n),
	}
	if 1<<l == n {
		evs["bitonic"] = netbuild.Bitonic(n)
		evs["odd-even"] = netbuild.OddEvenMergeSort(n)
		evs["random-rdn"] = delta.Random(l, 0.7, rng).ToNetwork()
		evs["shuffle-register"] = shuffle.Bitonic(n)
	}
	return evs
}

func TestZeroOneBitsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 6, 8, 10, 12} {
		for name, ev := range suite(n, rng) {
			ok, w := sortcheck.ZeroOne(n, ev, 0)
			okS, wS := sortcheck.ZeroOne(n, opaque{ev}, 0)
			if ok != okS || !reflect.DeepEqual(w, wS) {
				t.Errorf("n=%d %s: bits (%v, %v) != scalar (%v, %v)", n, name, ok, w, okS, wS)
			}
		}
	}
}

func TestZeroOneFractionBitsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{4, 6, 8, 10, 12} {
		for name, ev := range suite(n, rng) {
			got, err := sortcheck.ZeroOneFraction(context.Background(), n, ev, 0)
			want, errS := sortcheck.ZeroOneFraction(context.Background(), n, opaque{ev}, 0)
			if err != nil || errS != nil || got != want {
				t.Errorf("n=%d %s: fraction %v != scalar %v", n, name, got, want)
			}
		}
	}
}

// TestZeroOneBitsRandomBlocksWide spot-checks the kernel against the
// scalar oracle at widths near MaxZeroOneWires, where exhaustive
// enumeration is out of reach: random 64-mask blocks, every lane
// compared.
func TestZeroOneBitsRandomBlocksWide(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := sortcheck.MaxZeroOneWires
	c := netbuild.Bitonic(n)
	p := c.Compile()
	bb := network.NewBitBatch(p)
	blocks, laneMask := network.ZeroOneBlocks(n)
	for rep := 0; rep < 8; rep++ {
		block := uint64(rng.Int63n(int64(blocks)))
		bad := bb.Run(block) & laneMask
		for j := 0; j < 64; j++ {
			mask := block*64 + uint64(j)
			in := sortcheck.ZeroOneInput(mask, n)
			sorted := sortcheck.IsSorted(c.Eval(in))
			if gotBad := bad>>uint(j)&1 == 1; gotBad == sorted {
				t.Fatalf("n=%d mask=%d: kernel bad=%v, scalar sorted=%v", n, mask, gotBad, sorted)
			}
		}
	}
}

// TestSortedFractionPathIndependent: the Monte-Carlo estimator promises
// byte-identical results per (seed, workers) regardless of whether the
// evaluator compiles; the compiled fast path must not change streams.
func TestSortedFractionPathIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{8, 16} {
		for name, ev := range suite(n, rng) {
			for _, workers := range []int{1, 2, 4} {
				got := sortcheck.SortedFraction(n, 100, ev, 42, workers)
				want := sortcheck.SortedFraction(n, 100, opaque{ev}, 42, workers)
				if got != want {
					t.Errorf("n=%d %s workers=%d: compiled %v != opaque %v", n, name, workers, got, want)
				}
			}
		}
	}
}

// TestRandomPermsPathIndependent: same contract for RandomPerms — the
// rng is consumed identically on both paths, so verdict and witness
// must match for identical seeds.
func TestRandomPermsPathIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{8, 16} {
		for name, ev := range suite(n, rng) {
			ok, w := sortcheck.RandomPerms(n, 200, ev, rand.New(rand.NewSource(7)))
			okS, wS := sortcheck.RandomPerms(n, 200, opaque{ev}, rand.New(rand.NewSource(7)))
			if ok != okS || !reflect.DeepEqual(w, wS) {
				t.Errorf("n=%d %s: compiled (%v, %v) != opaque (%v, %v)", n, name, ok, w, okS, wS)
			}
		}
	}
}

// TestExhaustivePathIndependent: the permutation checker also uses the
// compiled scalar program when available.
func TestExhaustivePathIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{4, 6} {
		for name, ev := range suite(n, rng) {
			ok, w := sortcheck.Exhaustive(n, ev)
			okS, wS := sortcheck.Exhaustive(n, opaque{ev})
			if ok != okS || !reflect.DeepEqual(w, wS) {
				t.Errorf("n=%d %s: compiled (%v, %v) != opaque (%v, %v)", n, name, ok, w, okS, wS)
			}
		}
	}
}
