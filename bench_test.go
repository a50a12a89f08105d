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
	"context"
	"math/rand"
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

// BenchmarkOptimalNoncolliding measures the exact branch-and-bound
// search over all 3^n patterns on the A2 butterfly instance at n = 16.
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

// BenchmarkHalverEpsilon measures exact ε computation (2^16 inputs) on
// the bit-sliced kernel. The scalar oracle's leg of the same name lives
// next to the oracle, in internal/halver.
func BenchmarkHalverEpsilon(b *testing.B) {
	c := halver.CrossMatchings(16, 4, rand.New(rand.NewSource(10)))
	b.Run("bits", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			halver.Epsilon(c, 0)
		}
		reportInputsPerSec(b, 1<<16)
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
func BenchmarkZeroOneScalarVsBits(b *testing.B) {
	const n = 16
	c := netbuild.Bitonic(n)
	ctx := context.Background()
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

// BenchmarkMemoSpill measures the spill-backed transposition table on
// the warm n=16 dense-random optimum search (PR 9) — the trivial
// automorphism group means real table pressure, unlike the butterfly,
// whose canonicalized state space fits any table. Three legs: an
// eviction-bound RAM table at the floor budget as the baseline, the
// same squeezed RAM tier backed by the mmap'd disk tier (evictions
// become demotions; probes that miss RAM hit disk), and the cost of
// reopening a populated spill file warm (header validation plus the
// mapping — what a resumed run pays at startup).
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
		m, _, err := core.OpenSpillMemo(filepath.Join(b.TempDir(), "m.spill"), core.MinMemoBytes, 32<<20, "bench")
		if err != nil {
			b.Fatal(err)
		}
		defer m.Close()
		search(b, m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			search(b, m)
		}
		b.StopTimer()
		st := m.Stats()
		b.ReportMetric(float64(st.DiskHits)/float64(b.N), "diskhits/op")
		b.ReportMetric(float64(st.Demotions)/float64(b.N), "demotions/op")
	})
	b.Run("reopen-warm", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "m.spill")
		m, _, err := core.OpenSpillMemo(path, core.MinMemoBytes, 32<<20, "bench")
		if err != nil {
			b.Fatal(err)
		}
		search(b, m)
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, warm, err := core.OpenSpillMemo(path, core.MinMemoBytes, 32<<20, "bench")
			if err != nil || !warm {
				b.Fatalf("reopen: warm=%v err=%v", warm, err)
			}
			m.Close()
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
		fw := coord.NewFrontierWriter(j, "bench")
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
