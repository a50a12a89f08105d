package shufflenet_test

// One benchmark per reproduction experiment (E1–E11 plus ablations; see DESIGN.md's
// experiment index and EXPERIMENTS.md for recorded results), plus
// ablation benches for the design decisions called out in DESIGN.md §4:
// circuit vs. register evaluation, sequential vs. parallel evaluation,
// and the scaling of the Lemma 4.1 recursion.
//
// The experiment benches exercise the dominant computation of the
// corresponding table; regenerating the tables themselves is
// cmd/experiments' job.

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"shufflenet/internal/benes"
	"shufflenet/internal/bits"
	"shufflenet/internal/coord"
	"shufflenet/internal/core"
	"shufflenet/internal/delta"
	"shufflenet/internal/experiments"
	"shufflenet/internal/halver"
	"shufflenet/internal/machine"
	"shufflenet/internal/netbuild"
	"shufflenet/internal/network"
	"shufflenet/internal/obs"
	"shufflenet/internal/pattern"
	"shufflenet/internal/perm"
	"shufflenet/internal/randnet"
	"shufflenet/internal/shuffle"
	"shufflenet/internal/sortcheck"
)

// BenchmarkE1BitonicSort measures Stone's shuffle-based bitonic sorter:
// the evaluation leg at n = 1024 and the verification leg (exhaustive
// 0-1 principle, what E1 runs for n <= 16) on the bit-sliced kernel.
func BenchmarkE1BitonicSort(b *testing.B) {
	b.Run("eval/n=1024", func(b *testing.B) {
		const n = 1024
		r := shuffle.Bitonic(n)
		in := []int(perm.Random(n, rand.New(rand.NewSource(1))))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Eval(in)
		}
	})
	b.Run("verify01/n=16", func(b *testing.B) {
		const n = 16
		r := shuffle.Bitonic(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ok, _ := sortcheck.ZeroOne(n, r, 0); !ok {
				b.Fatal("bitonic does not sort")
			}
		}
		reportInputsPerSec(b, 1<<n)
	})
}

// BenchmarkE2LemmaSurvival measures one constructive Lemma 4.1 pass
// over a full butterfly block at n = 1024 with k = lg n.
func BenchmarkE2LemmaSurvival(b *testing.B) {
	const n = 1024
	l := bits.Lg(n)
	tree := delta.Butterfly(l)
	p := pattern.Uniform(n, pattern.M(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Lemma41(context.Background(), tree, p, l)
	}
}

// BenchmarkLemma41 is the allocation-focused view of the Lemma 4.1
// engine (same workload as BenchmarkE2LemmaSurvival, with allocs/op
// reported): the flat in-place recursion is expected to hold allocs/op
// an order of magnitude below the old per-node Clone()+map design.
func BenchmarkLemma41(b *testing.B) {
	const n = 1024
	l := bits.Lg(n)
	tree := delta.Butterfly(l)
	p := pattern.Uniform(n, pattern.M(0))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Lemma41(context.Background(), tree, p, l)
	}
}

// BenchmarkOptimalNoncolliding measures one call of the exact optimum
// search on the A2 butterfly instance at n = 16 as a caller without a
// table makes it. Each call builds its private auto-sized
// transposition table (12.6 MB, mapped, so only the buckets the search
// writes are ever zeroed); the search itself is measured by
// BenchmarkOptimalCanonMemo.
func BenchmarkOptimalNoncolliding(b *testing.B) {
	const n = 16
	it := delta.NewIterated(n)
	it.AddBlock(nil, delta.Butterfly(bits.Lg(n)))
	circ, _ := it.ToNetwork()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.OptimalNoncollidingOpt(context.Background(), circ, core.OptimalOptions{})
	}
}

// BenchmarkOptimalCanonMemo isolates the symmetry machinery's cost in
// the optimum search: the same n=16 searches with the transposition
// table pre-warmed (probes hit, so canonical-key computation and the
// table round-trip dominate) and with the table off (pruning only).
// The butterfly is the structured case the memo is for; the dense
// random instance is canonicalization's worst case — its automorphism
// group is trivial, so keys buy nothing and must at least be cheap.
// dense11/cold is the search layer under the perfbench search
// workload, in its shape: seeded n=11 dense circuits, each solved with
// a fresh auto-sized table (its allocation timed) on one worker. One
// op solves the whole set, so every op does the same work.
func BenchmarkOptimalCanonMemo(b *testing.B) {
	const n = 16
	it := delta.NewIterated(n)
	it.AddBlock(nil, delta.Butterfly(bits.Lg(n)))
	fly, _ := it.ToNetwork()
	dense := randnet.Levels(n, 8, rand.New(rand.NewSource(9)))
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		circ *network.Network
		opt  core.OptimalOptions
	}{
		{"butterfly/warm", fly, core.OptimalOptions{Workers: 1, Memo: core.NewMemo(32 << 20)}},
		{"butterfly/off", fly, core.OptimalOptions{Workers: 1, NoMemo: true}},
		{"dense/warm", dense, core.OptimalOptions{Workers: 1, Memo: core.NewMemo(32 << 20)}},
		{"dense/off", dense, core.OptimalOptions{Workers: 1, NoMemo: true}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if _, _, _, err := core.OptimalNoncollidingOpt(ctx, bc.circ, bc.opt); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := core.OptimalNoncollidingOpt(ctx, bc.circ, bc.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	rng := rand.New(rand.NewSource(11))
	set := make([]*network.Network, 64)
	for i := range set {
		set[i] = randnet.Levels(11, 8, rng)
	}
	b.Run("dense11/cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, c := range set {
				opt := core.OptimalOptions{Workers: 1, Memo: core.NewMemo(core.AutoMemoBytes(11))}
				if _, _, _, err := core.OptimalNoncollidingOpt(ctx, c, opt); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

var sinkNets []*network.Network

// BenchmarkBuildLevels builds the perfbench search workload's circuit
// set: 1024 dense random circuits of randnet.Levels(11, 8) from one
// seed, 8,192 AddLevel calls per op. It is the layer the workload's
// setup_s times, and it is dominated by checking each level.
func BenchmarkBuildLevels(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		set := make([]*network.Network, 1024)
		for j := range set {
			set[j] = randnet.Levels(11, 8, rng)
		}
		sinkNets = set
	}
}

// BenchmarkParse measures the first layer of every daemon request, the
// body parser, in its three formats, on the 16-wire circuit shape of
// perfbench's serve-repeat check requests: one random level ahead of
// the bitonic sorter. The register leg parses Stone's shuffle-based
// bitonic sorter, the register form of the same width.
func BenchmarkParse(b *testing.B) {
	const n = 16
	c := randnet.Levels(n, 1, rand.New(rand.NewSource(1))).Append(netbuild.Bitonic(n))
	var text, dot, reg bytes.Buffer
	if err := c.WriteText(&text); err != nil {
		b.Fatal(err)
	}
	if err := c.WriteDOT(&dot, "bench"); err != nil {
		b.Fatal(err)
	}
	if err := shuffle.Bitonic(n).WriteText(&reg); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		body  []byte
		parse func(io.Reader) error
	}{
		{"text", text.Bytes(), func(r io.Reader) error { _, err := network.ReadText(r); return err }},
		{"register", reg.Bytes(), func(r io.Reader) error { _, err := network.ReadRegisterText(r); return err }},
		{"dot", dot.Bytes(), func(r io.Reader) error { _, err := network.ReadDOT(r); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(bc.body)))
			for i := 0; i < b.N; i++ {
				if err := bc.parse(bytes.NewReader(bc.body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var sinkMemo *core.Memo

// BenchmarkNewMemo measures building a transposition table at the two
// sizes the program mounts most: auto11, the 48 KiB table the search
// workload builds per circuit (AutoMemoBytes(11), on the heap), and
// serve64MiB, the daemon's default 64 MiB budget (48 MiB realized,
// mapped). A mapped table's pages are zeroed by the kernel when first
// written, so this leg times the mapping alone.
func BenchmarkNewMemo(b *testing.B) {
	for _, bc := range []struct {
		name  string
		bytes int64
	}{
		{"auto11", core.AutoMemoBytes(11)},
		{"serve64MiB", 64 << 20},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkMemo = core.NewMemo(bc.bytes)
			}
		})
	}
}

// BenchmarkE3IteratedSurvival measures Theorem 4.1 across two butterfly
// blocks with random glue at n = 256.
func BenchmarkE3IteratedSurvival(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(2))
	it := delta.NewIterated(n)
	it.AddBlock(nil, delta.Butterfly(bits.Lg(n)))
	it.AddBlock(perm.Random(n, rng), delta.Butterfly(bits.Lg(n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Theorem41Ctx(context.Background(), it, 0)
	}
}

// BenchmarkDecomposeIterated measures delta.DecomposeIterated, which
// recovers the iterated reverse delta structure /v1/adversary runs
// Theorem 4.1 on: n16 cycles through 8 seeded one-block networks
// behind a random permutation (perfbench serve-repeat's adversary
// shape), n1024 and n4096 decompose one such circuit, where a step
// that scanned whole levels would dominate.
func BenchmarkDecomposeIterated(b *testing.B) {
	for _, leg := range []struct {
		name    string
		n, pool int
	}{{"n16", 16, 8}, {"n1024", 1024, 1}, {"n4096", 4096, 1}} {
		rng := rand.New(rand.NewSource(1))
		pool := make([]*network.Network, leg.pool)
		for i := range pool {
			it := delta.NewIterated(leg.n)
			it.AddBlock(perm.Random(leg.n, rng), delta.Random(bits.Lg(leg.n), 1, rng))
			pool[i], _ = it.ToNetwork()
		}
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := delta.DecomposeIterated(pool[i%len(pool)], bits.Lg(leg.n)); !ok {
					b.Fatal("not an iterated reverse delta network")
				}
			}
		})
	}
}

// BenchmarkE4Certificate measures the full Corollary 4.1.1 pipeline:
// adversary, certificate extraction, and verification by replay.
func BenchmarkE4Certificate(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(3))
	it := delta.NewIterated(n)
	it.AddBlock(nil, delta.Butterfly(bits.Lg(n)))
	it.AddBlock(perm.Random(n, rng), delta.Butterfly(bits.Lg(n)))
	circ, _ := it.ToNetwork()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an, _ := core.Theorem41Ctx(context.Background(), it, 0)
		cert, err := an.Certificate()
		if err != nil {
			b.Fatal(err)
		}
		if err := cert.Verify(circ); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5TruncatedBlocks measures the Section 5 variant: Theorem
// 4.1 over four forest blocks of 3-level trees at n = 256.
func BenchmarkE5TruncatedBlocks(b *testing.B) {
	const n, f = 256, 3
	rng := rand.New(rand.NewSource(4))
	it := delta.NewIterated(n)
	for blk := 0; blk < 4; blk++ {
		trees := make([]*delta.Network, n/(1<<f))
		for i := range trees {
			trees[i] = delta.Random(f, 1.0, rng)
		}
		it.AddForest(perm.Random(n, rng), delta.NewForest(trees...))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Theorem41Ctx(context.Background(), it, 0)
	}
}

// BenchmarkE6AverageCase measures the Monte-Carlo sorted-fraction
// estimator on a truncated Stone bitonic network.
func BenchmarkE6AverageCase(b *testing.B) {
	const n = 128
	d := bits.Lg(n)
	net := randnet.TruncatedBitonic(n, d*d/2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sortcheck.SortedFraction(n, 200, net, 5, 0)
	}
}

// BenchmarkE7Constructions measures construction plus structural
// recognition (the reverse-delta recognizer on a butterfly).
func BenchmarkE7Constructions(b *testing.B) {
	const n = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := netbuild.Bitonic(n)
		bf := delta.Butterfly(bits.Lg(n)).ToNetwork()
		if !delta.IsReverseDelta(bf) || c.Size() == 0 {
			b.Fatal("recognizer failed")
		}
	}
}

// BenchmarkE8AdversaryDepth measures running the adversary to
// exhaustion (growing the butterfly stack until |D| < 2) at n = 64.
func BenchmarkE8AdversaryDepth(b *testing.B) {
	const n = 64
	l := bits.Lg(n)
	rng := rand.New(rand.NewSource(6))
	pres := make([]perm.Perm, 6*l)
	for i := range pres {
		pres[i] = perm.Random(n, rng)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := delta.NewIterated(n)
		it.AddBlock(nil, delta.Butterfly(l))
		for d := 1; d <= 6*l; d++ {
			an, _ := core.Theorem41Ctx(context.Background(), it, 0)
			if len(an.D) < 2 {
				break
			}
			it.AddBlock(pres[d-1], delta.Butterfly(l))
		}
	}
}

// BenchmarkE9Routing measures the two routing constructions: the
// strict-shuffle route-by-sorting and the 2-pass shuffle-unshuffle
// Beneš route.
func BenchmarkE9Routing(b *testing.B) {
	const n = 256
	target := perm.Random(n, rand.New(rand.NewSource(11)))
	b.Run("shuffle-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			shuffle.RoutePermutation(target)
		}
	})
	b.Run("shuffle-unshuffle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			shuffle.RouteShuffleUnshuffle(target)
		}
	})
}

// BenchmarkE10Machine measures the machine simulator on the Stone
// bitonic sorting workload (single run + 64-way pipelined batch).
func BenchmarkE10Machine(b *testing.B) {
	const n = 256
	m := machine.New(n, machine.DefaultCost)
	r := shuffle.Bitonic(n)
	rng := rand.New(rand.NewSource(12))
	batch := make([][]int, 64)
	for i := range batch {
		batch[i] = []int(perm.Random(n, rng))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RunPipelined(r, batch)
	}
}

// BenchmarkE11Witnesses measures the exhaustive 0-1 witness-density
// scan (2^16 evaluations of a shallow network).
func BenchmarkE11Witnesses(b *testing.B) {
	const n = 16
	net := randnet.TruncatedBitonic(n, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sortcheck.ZeroOneFraction(context.Background(), n, net, 0)
	}
}

// BenchmarkExperimentTables regenerates every E-table in quick mode —
// the end-to-end harness cost.
func BenchmarkExperimentTables(b *testing.B) {
	cfg := experiments.Config{Seed: 1, Quick: true}
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.All() {
			if tab := r.Run(cfg); len(tab.Rows) == 0 {
				b.Fatal("empty table")
			}
		}
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationCircuitVsRegister compares evaluating the same
// bitonic sorter in the two network models.
func BenchmarkAblationCircuitVsRegister(b *testing.B) {
	const n = 1024
	circ := netbuild.Bitonic(n)
	reg, _ := network.ToRegister(circ)
	in := []int(perm.Random(n, rand.New(rand.NewSource(7))))
	b.Run("circuit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			circ.Eval(in)
		}
	})
	b.Run("register", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reg.Eval(in)
		}
	})
}

// BenchmarkAblationParallelEval compares sequential and
// level-synchronous parallel circuit evaluation on a wide network.
func BenchmarkAblationParallelEval(b *testing.B) {
	const n = 1 << 14
	circ := netbuild.Bitonic(n)
	in := []int(perm.Random(n, rand.New(rand.NewSource(8))))
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			circ.Eval(in)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			circ.EvalParallel(in, 0)
		}
	})
}

// BenchmarkAblationLemmaScaling shows the Lemma 4.1 recursion cost as n
// grows (near-linear in n·lg n).
func BenchmarkAblationLemmaScaling(b *testing.B) {
	for _, n := range []int{256, 1024, 4096, 16384} {
		n := n
		b.Run(itoa(n), func(b *testing.B) {
			l := bits.Lg(n)
			tree := delta.Butterfly(l)
			p := pattern.Uniform(n, pattern.M(0))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.Lemma41(context.Background(), tree, p, l)
			}
		})
	}
}

// BenchmarkAblationZeroOneWorkers compares 0-1-principle checking with
// one worker and with all cores.
func BenchmarkAblationZeroOneWorkers(b *testing.B) {
	const n = 16
	c := netbuild.Bitonic(n)
	b.Run("workers=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sortcheck.ZeroOneFraction(context.Background(), n, c, 1)
		}
	})
	b.Run("workers=all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sortcheck.ZeroOneFraction(context.Background(), n, c, 0)
		}
	})
}

// BenchmarkBenesRouting measures Beneš switch-setting computation.
func BenchmarkBenesRouting(b *testing.B) {
	const n = 1024
	target := perm.Random(n, rand.New(rand.NewSource(9)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benes.Route(target)
	}
}

// BenchmarkHalverEpsilon measures exact ε computation on the
// bit-sliced kernel: bits at n = 16 with 4 cross-matching passes (2^16
// inputs), serve at the /v1/halver shape of perfbench's serve-repeat
// workload (n = 16, 2 passes, cycling through 8 seeded circuits), and
// n20 at n = 20 with 4 passes, whose 2^14 blocks take the parallel
// path. The scalar oracle's leg of the same name lives next to the
// oracle, in internal/halver.
func BenchmarkHalverEpsilon(b *testing.B) {
	c := halver.CrossMatchings(16, 4, rand.New(rand.NewSource(10)))
	b.Run("bits", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			halver.Epsilon(c, 0)
		}
		reportInputsPerSec(b, 1<<16)
	})
	rng := rand.New(rand.NewSource(1))
	var pool [8]*network.Network
	for i := range pool {
		pool[i] = halver.CrossMatchings(16, 2, rng)
	}
	b.Run("serve", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			halver.Epsilon(pool[i%len(pool)], 0)
		}
		reportInputsPerSec(b, 1<<16)
	})
	wide := halver.CrossMatchings(20, 4, rand.New(rand.NewSource(20)))
	b.Run("n20", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			halver.Epsilon(wide, 0)
		}
		reportInputsPerSec(b, 1<<20)
	})
}

// opaqueEval hides the network's Compile method, so the sortcheck
// entry points fall back to scalar enumeration.
type opaqueEval struct{ c *network.Network }

func (o opaqueEval) Eval(in []int) []int { return o.c.Eval(in) }

// BenchmarkZeroOneScalarVsBits measures exhaustive 0-1 verification of
// Batcher's bitonic sorter at n = 16 (2^16 inputs per op) on the
// bit-sliced kernel vs. the scalar fallback — the acceptance benchmark
// for the SWAR evaluation engine (EXPERIMENTS.md records the ratio).
// The broken legs time failing checks: each op checks the sorter
// missing one comparator, cycling through every such copy that fails,
// so the smallest failing mask comes early for some and late for
// others.
func BenchmarkZeroOneScalarVsBits(b *testing.B) {
	const n = 16
	c := netbuild.Bitonic(n)
	ctx := context.Background()
	var broken []*network.Network
	for l, lv := range c.Levels() {
		for j := range lv {
			d := network.New(n)
			for i, lv := range c.Levels() {
				if i == l {
					lv = append(lv[:j:j], lv[j+1:]...)
				}
				d.AddLevel(lv)
			}
			if ok, _ := sortcheck.ZeroOne(n, d, 0); !ok {
				broken = append(broken, d)
			}
		}
	}
	b.Run("bits", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ok, _ := sortcheck.ZeroOne(n, c, 0); !ok {
				b.Fatal("bitonic does not sort")
			}
		}
		reportInputsPerSec(b, 1<<n)
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ok, _ := sortcheck.ZeroOne(n, opaqueEval{c}, 0); !ok {
				b.Fatal("bitonic does not sort")
			}
		}
		reportInputsPerSec(b, 1<<n)
	})
	b.Run("broken-bits", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ok, _ := sortcheck.ZeroOne(n, broken[i%len(broken)], 0); ok {
				b.Fatal("a broken copy sorts")
			}
		}
	})
	b.Run("broken-scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if ok, _ := sortcheck.ZeroOne(n, opaqueEval{broken[i%len(broken)]}, 0); ok {
				b.Fatal("a broken copy sorts")
			}
		}
	})
	b.Run("fraction-bits", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sortcheck.ZeroOneFraction(ctx, n, c, 0)
		}
		reportInputsPerSec(b, 1<<n)
	})
	b.Run("fraction-scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sortcheck.ZeroOneFraction(ctx, n, opaqueEval{c}, 0)
		}
		reportInputsPerSec(b, 1<<n)
	})
}

// BenchmarkMemoSpill measures the file-backed transposition table on
// the warm n=16 dense-random optimum search (PR 9) — the trivial
// automorphism group means real table pressure, unlike the butterfly,
// whose canonicalized state space fits any table. Four legs: an
// eviction-bound heap table at the floor budget as the baseline, a
// 32 MiB table in a spill file, the cost of reopening a populated
// spill file warm (header validation plus the mapping — what a resumed
// run pays at startup), and the open plus first search on a fresh
// 256 MiB file, where the mapping's readahead policy shows (Close, the
// write-back, is outside the timer).
func BenchmarkMemoSpill(b *testing.B) {
	const n = 16
	circ := randnet.Levels(n, 8, rand.New(rand.NewSource(9)))
	ctx := context.Background()
	search := func(b *testing.B, m *core.Memo) {
		if _, err := core.OptimalNoncollidingPacked(ctx, circ, core.OptimalOptions{Workers: 1, Memo: m}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("ram", func(b *testing.B) {
		m := core.NewMemo(core.MinMemoBytes)
		search(b, m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			search(b, m)
		}
	})
	b.Run("spill", func(b *testing.B) {
		m, _, err := core.OpenSpillMemo(filepath.Join(b.TempDir(), "m.spill"), 32<<20, "bench")
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		search(b, m)
		before := m.Stats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			search(b, m)
		}
		b.StopTimer()
		st := m.Stats()
		b.ReportMetric(float64(st.Hits-before.Hits)/float64(b.N), "hits/op")
		b.ReportMetric(float64(st.Evictions-before.Evictions)/float64(b.N), "evictions/op")
	})
	b.Run("reopen-warm", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "m.spill")
		m, _, err := core.OpenSpillMemo(path, 32<<20, "bench")
		if err != nil {
			b.Fatal(err)
		}
		search(b, m)
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, warm, err := core.OpenSpillMemo(path, 32<<20, "bench")
			if err != nil || !warm {
				b.Fatalf("reopen: warm=%v err=%v", warm, err)
			}
			m.Close()
		}
	})
	b.Run("fresh", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "m.spill")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, warm, err := core.OpenSpillMemo(path, 256<<20, "bench")
			if err != nil || warm {
				b.Fatalf("open: warm=%v err=%v", warm, err)
			}
			search(b, m)
			b.StopTimer()
			if err := m.Close(); err != nil {
				b.Fatal(err)
			}
			if err := os.Remove(path); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}

// BenchmarkOptimalResume measures the resumable-search machinery on
// the warm n=16 butterfly instance (PR 9): the plain search as the
// baseline, the same search journaling one frontier checkpoint per
// retired prefix (the durability overhead a -journal run pays), and a
// resume whose checkpoint already covers the whole frontier — the
// skip fast path: walk 81 skipped prefixes and return the seeded
// incumbent.
func BenchmarkOptimalResume(b *testing.B) {
	const n = 16
	it := delta.NewIterated(n)
	it.AddBlock(nil, delta.Butterfly(bits.Lg(n)))
	circ, _ := it.ToNetwork()
	ctx := context.Background()
	memo := core.NewMemo(32 << 20)
	base := core.OptimalOptions{Workers: 1, Memo: memo}
	packed, err := core.OptimalNoncollidingPacked(ctx, circ, base)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("search", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.OptimalNoncollidingPacked(ctx, circ, base); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("checkpointed", func(b *testing.B) {
		j, err := obs.OpenJournal(filepath.Join(b.TempDir(), "bench.jsonl"))
		if err != nil {
			b.Fatal(err)
		}
		defer j.Close()
		fw := coord.NewFrontierWriter(j)
		opt := base
		opt.OnPrefixDone = func(p int, inc uint64) { _ = fw.PrefixDone(p, inc) }
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.OptimalNoncollidingPacked(ctx, circ, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("skip-all", func(b *testing.B) {
		opt := base
		opt.SkipPrefix = func(int) bool { return true }
		opt.SeedIncumbent = packed
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := core.OptimalNoncollidingPacked(ctx, circ, opt)
			if err != nil || got != packed {
				b.Fatalf("skip-all returned %d, want the seed %d (err %v)", got, packed, err)
			}
		}
	})
}

// reportInputsPerSec reports exhaustive-checking throughput in 0-1
// inputs (masks) per second.
func reportInputsPerSec(b *testing.B, inputsPerOp int) {
	b.ReportMetric(float64(inputsPerOp)*float64(b.N)/b.Elapsed().Seconds(), "inputs/s")
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
