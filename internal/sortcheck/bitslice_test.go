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
	mathbits "math/bits"
	"math/rand"
	"reflect"
	"testing"

	"shufflenet/internal/delta"
	"shufflenet/internal/halver"
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

// maskOrder is the mask-order oracle for the image scans: every block
// of ZeroOneBlocks through BitBatch.Run, read lane by lane. It returns
// the verdict, the smallest failing mask, the count of sorted inputs
// and, for even n, ε as the scalar readout computes it.
func maskOrder(p *network.Program) (sorts bool, firstBad uint64, good int64, eps float64) {
	n := p.Wires()
	m := n / 2
	blocks, laneMask := network.ZeroOneBlocks(n)
	bb := network.NewBitBatch(p)
	sorts = true
	for b := 0; b < blocks; b++ {
		bad := bb.Run(uint64(b))
		out := bb.State()
		for j := uint(0); j < 64; j++ {
			if laneMask>>j&1 == 0 {
				continue
			}
			mask := uint64(b)*64 + uint64(j)
			if bad>>j&1 == 1 {
				if sorts {
					sorts, firstBad = false, mask
				}
			} else {
				good++
			}
			ones := mathbits.OnesCount64(mask)
			if n%2 != 0 || ones == 0 || ones == n {
				continue
			}
			onesLow, zerosHigh := 0, 0
			for i := 0; i < n; i++ {
				bit := int(out[i] >> j & 1)
				if i < m {
					onesLow += bit
				} else {
					zerosHigh += 1 - bit
				}
			}
			if ones <= m {
				eps = max(eps, float64(onesLow)/float64(ones))
			}
			if zeros := n - ones; zeros <= m {
				eps = max(eps, float64(zerosHigh)/float64(zeros))
			}
		}
	}
	return sorts, firstBad, good, eps
}

// randomLevel returns a level of about density·n/2 comparators on
// random wire pairs, each pointing either way.
func randomLevel(n int, density float64, rng *rand.Rand) network.Level {
	w := rng.Perm(n)
	var lv network.Level
	for i := 0; i+1 < n; i += 2 {
		if rng.Float64() < density {
			lv = append(lv, network.Comparator{Min: w[i], Max: w[i+1]})
		}
	}
	return lv
}

// dropOne returns c with one random comparator removed.
func dropOne(c *network.Network, rng *rand.Rand) *network.Network {
	levels := c.Levels()
	out := network.New(c.Wires())
	li := rng.Intn(len(levels))
	for i, lv := range levels {
		if i == li && len(lv) > 0 {
			j := rng.Intn(len(lv))
			lv = append(lv[:j:j], lv[j+1:]...)
		}
		out.AddLevel(lv)
	}
	return out
}

// TestImageScanMatchesMaskOrder: on 1,080 random circuits of 1 to 18
// wires, ZeroOne's verdict and witness, ZeroOneFraction and, at even
// widths, halver.Epsilon equal the mask-order oracle. The set has
// random levels (empty, partial and full first levels), sorters behind
// a random level, the same missing one comparator, and register
// programs with an output gather.
func TestImageScanMatchesMaskOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ctx := context.Background()
	const perWidth = 60
	for n := 1; n <= 18; n++ {
		if testing.Short() && n > 14 {
			break
		}
		merge := network.New(n) // sorts one wire
		if n > 1 {
			merge = netbuild.MergeExchange(n)
		}
		for i := 0; i < perWidth; i++ {
			var ev sortcheck.Evaluator
			var c *network.Network
			kind := i % 4
			switch kind {
			case 0: // random levels
				c = network.New(n)
				for d := rng.Intn(6); d >= 0; d-- {
					c.AddLevel(randomLevel(n, rng.Float64()*1.2, rng))
				}
			case 1: // a sorter behind a random level
				c = network.New(n).AddLevel(randomLevel(n, rng.Float64()*1.2, rng)).Append(merge)
			case 2: // the same missing one comparator
				c = dropOne(network.New(n).AddLevel(randomLevel(n, 1, rng)).Append(merge), rng)
			default: // a register program: the circuit's model twin, gathered
				c = network.New(n)
				for d := rng.Intn(5); d >= 0; d-- {
					c.AddLevel(randomLevel(n, rng.Float64()*1.2, rng))
				}
				if rng.Intn(2) == 0 {
					c.Append(merge)
				}
				if n%2 == 0 {
					ev, _ = network.ToRegister(c)
				}
			}
			if ev == nil {
				ev = c
			}
			p := ev.(network.Compilable).Compile()
			sorts, firstBad, good, eps := maskOrder(p)
			var want []int
			if !sorts {
				want = sortcheck.ZeroOneInput(firstBad, n)
			}
			ok, w := sortcheck.ZeroOne(n, ev, 0)
			if ok != sorts || !reflect.DeepEqual(w, want) {
				t.Fatalf("n=%d kind %d %v: ZeroOne (%v, %v), mask order (%v, %v)", n, kind, c.Levels(), ok, w, sorts, want)
			}
			frac, err := sortcheck.ZeroOneFraction(ctx, n, ev, 0)
			if wantFrac := float64(good) / float64(int64(1)<<uint(n)); err != nil || frac != wantFrac {
				t.Fatalf("n=%d kind %d %v: ZeroOneFraction %v (%v), mask order %v", n, kind, c.Levels(), frac, err, wantFrac)
			}
			if n%2 == 0 && ev == sortcheck.Evaluator(c) { // ε reads the circuit's wires
				if got := halver.Epsilon(c, 0); got != eps {
					t.Fatalf("n=%d kind %d %v: Epsilon %v, mask order %v", n, kind, c.Levels(), got, eps)
				}
			}
		}
	}
}

// TestZeroOneWitnessAcrossWorkers: at 20 wires the image of a full
// first level has 2,187 blocks, enough for ForEachChunk to split it,
// so workers race to lower the best witness and skip blocks against
// it. On sorters behind a random level missing one comparator, the
// witness at 1, 2 and 3 workers is the first failing mask of an
// in-order walk.
func TestZeroOneWitnessAcrossWorkers(t *testing.T) {
	const n = 20
	rng := rand.New(rand.NewSource(10))
	merge := netbuild.MergeExchange(n)
	for i := 0; i < 6; i++ {
		c := dropOne(network.New(n).AddLevel(randomLevel(n, 1, rng)).Append(merge), rng)
		p := c.Compile()
		bb := network.NewBitBatch(p)
		blocks, _ := network.ZeroOneBlocks(n)
		var want []int
		for b := uint64(0); b < uint64(blocks); b++ {
			if bad := bb.Run(b); bad != 0 {
				want = sortcheck.ZeroOneInput(b*64+uint64(mathbits.TrailingZeros64(bad)), n)
				break
			}
		}
		for _, workers := range []int{1, 2, 3} {
			ok, w := sortcheck.ZeroOne(n, c, workers)
			if ok != (want == nil) || !reflect.DeepEqual(w, want) {
				t.Fatalf("circuit %d workers=%d: ZeroOne (%v, %v), first failing mask %v", i, workers, ok, w, want)
			}
		}
	}
}

// FuzzZeroOne: on circuits of at most 12 wires and 8 levels whose
// comparators point either way, ZeroOneCtx (verdict and witness) and
// ZeroOneFraction at 1 and 2 workers equal the scalar path. The first
// byte picks the width. The second picks the first level: empty, full
// (adjacent pairs from a rotation, directions from its high bits), or
// read from the bytes like the later levels, and so mostly partial.
// Each later byte is a comparator (high nibble to low nibble, mod n),
// and a byte that cannot join the current level closes it.
func FuzzZeroOne(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{11, 0})
	f.Add([]byte{7, 0x1d, 0x01, 0x23, 0x00, 0x45})
	f.Add([]byte{9, 0x02, 0x01, 0x23, 0x45, 0x67, 0x89, 0x00, 0x10, 0x32})
	f.Add([]byte{5, 0x05, 0x70, 0x61, 0x52, 0x43, 0x11, 0x07, 0x16, 0x25, 0x34})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const maxDepth = 8
		n := 1 + int(data[0]%12)
		c := network.New(n)
		if len(data) > 1 {
			switch mode := data[1]; mode % 3 {
			case 0:
				c.AddLevel(nil)
			case 1:
				var lv network.Level
				for i := 0; i+1 < n; i += 2 {
					a, b := (i+int(mode>>2))%n, (i+1+int(mode>>2))%n
					if mode>>(2+i/2%6)&1 == 1 {
						a, b = b, a
					}
					lv = append(lv, network.Comparator{Min: a, Max: b})
				}
				c.AddLevel(lv)
			}
			data = data[1:]
		}
		var lv network.Level
		var used uint64
		for _, x := range data[1:] {
			if c.Depth() == maxDepth {
				break
			}
			a, b := int(x>>4)%n, int(x&15)%n
			if a != b && used>>a&1 == 0 && used>>b&1 == 0 {
				lv = append(lv, network.Comparator{Min: a, Max: b})
				used |= 1<<a | 1<<b
				continue
			}
			if len(lv) > 0 {
				c.AddLevel(lv)
				lv, used = nil, 0
			}
		}
		if len(lv) > 0 && c.Depth() < maxDepth {
			c.AddLevel(lv)
		}
		ctx := context.Background()
		okS, wS, err := sortcheck.ZeroOneCtx(ctx, n, opaque{c}, 1)
		if err != nil {
			t.Fatal(err)
		}
		fracS, err := sortcheck.ZeroOneFraction(ctx, n, opaque{c}, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			ok, w, err := sortcheck.ZeroOneCtx(ctx, n, c, workers)
			if err != nil || ok != okS || !reflect.DeepEqual(w, wS) {
				t.Fatalf("workers=%d on %v: ZeroOneCtx (%v, %v, %v), scalar (%v, %v)", workers, c.Levels(), ok, w, err, okS, wS)
			}
			frac, err := sortcheck.ZeroOneFraction(ctx, n, c, workers)
			if err != nil || frac != fracS {
				t.Fatalf("workers=%d on %v: ZeroOneFraction %v (%v), scalar %v", workers, c.Levels(), frac, err, fracS)
			}
		}
	})
}
