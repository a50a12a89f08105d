// Package sortcheck decides whether comparator networks sort, and
// quantifies how badly they fail when they do not.
//
// The main tool is the 0-1 principle (invoked in Section 5 of the
// paper): a comparator network on n wires sorts all inputs iff it sorts
// all 2^n inputs from {0,1}^n. ZeroOne runs that check exhaustively and
// in parallel, returning a witness on failure. Exhaustive and
// RandomPerms check permutation inputs directly. The metrics
// (Inversions, MaxDislocation) grade partially sorted outputs for the
// average-case experiments.
//
// Whenever the evaluator exposes its network structure (it implements
// network.Compilable — both *network.Network and *network.Register do),
// the exhaustive 0-1 checkers run on the compiled bit-sliced kernel:
// 64 inputs per uint64 lane-set, two bitwise ops per comparator, no
// allocation (network.Program.EvalBits). They do not walk all 2^n
// inputs. The network's first level maps {0,1}^n onto 3^k·2^(n−2k)
// vectors (k comparators), keeps each input's ones count and leaves
// each of those vectors unchanged, so the checkers scan that image,
// weighting each vector by the inputs it stands for
// (network.BitBatch.LoadImage), and a failing check takes the smallest
// input a failing vector stands for as its witness. Opaque evaluators
// fall back to the unexported scalar enumeration (one Eval per mask),
// which returns identical verdicts, witnesses and fractions; the
// differential tests reach it by hiding Compile.
package sortcheck

import (
	"context"
	"fmt"
	mathbits "math/bits"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"

	"shufflenet/internal/network"
	"shufflenet/internal/obs"
	"shufflenet/internal/par"
)

// Checker metrics. Counts are flushed at chunk granularity on the
// bit-sliced paths (one atomic per worker chunk), never per mask, so
// the kernel throughput is unaffected. sortcheck.zeroone.masks counts
// the inputs each scan *settled*: on the bit-sliced paths the inputs
// the evaluated image blocks stand for (2^n for a check that passes;
// a check that fails skips the blocks that cannot hold a smaller
// witness, counted in sortcheck.zeroone.early_exits); the kernel
// words behind them are network.evalbits.words. On the scalar fallback
// paths it is the masks settled in scan order (exact when the check
// passes; on failure the masks at and before the witness).
var (
	metMasks      = obs.C("sortcheck.zeroone.masks")
	metWitnesses  = obs.C("sortcheck.zeroone.witnesses")
	metEarlyExits = obs.C("sortcheck.zeroone.early_exits")
	metPerms      = obs.C("sortcheck.perm.inputs")
	metFracTrials = obs.C("sortcheck.sortedfrac.trials")
)

// Evaluator is the view of a comparator network this package needs:
// a pure input-to-output mapping on vectors of a fixed width. Both
// *network.Network and *network.Register satisfy it.
type Evaluator interface {
	Eval(input []int) []int
}

// MaxZeroOneWires bounds the width accepted by ZeroOne: 2^n inputs must
// be enumerable in reasonable time. The bit-sliced kernel settles 64
// inputs per program pass, which is what makes widths this large
// practical (the former cap of 30 predates the kernel; see
// EXPERIMENTS.md for measured throughput).
const MaxZeroOneWires = 32

// compiled returns the bit-slice-capable compiled form of ev when ev
// exposes one of the expected width, and nil otherwise (opaque
// evaluators use the scalar path).
func compiled(n int, ev Evaluator) *network.Program {
	if c, ok := ev.(network.Compilable); ok {
		if p := c.Compile(); p.Wires() == n {
			return p
		}
	}
	return nil
}

// IsSorted reports whether xs is nondecreasing.
func IsSorted(xs []int) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			return false
		}
	}
	return true
}

// ZeroOneInput expands the low n bits of mask into a 0-1 vector, with
// bit i of mask becoming entry i.
func ZeroOneInput(mask uint64, n int) []int {
	in := make([]int, n)
	for i := 0; i < n; i++ {
		in[i] = int((mask >> uint(i)) & 1)
	}
	return in
}

// intoEvaluator is the allocation-free evaluation contract
// (network.Program implements it): write the output for input into
// dst, where dst and input may alias.
type intoEvaluator interface {
	EvalInto(dst, input []int)
}

// failsZeroOne returns pred(mask) = "ev does not sort the 0-1 input
// mask". When ev exposes the EvalInto scratch path the predicate
// expands the mask into, and evaluates in, a pooled per-worker buffer —
// zero allocations per mask, which is what keeps the scalar path
// usable at width 20+ (one Eval per mask costs two allocations and the
// GC traffic dominates the comparators).
// Opaque evaluators keep the allocating Eval path.
func failsZeroOne(n int, ev Evaluator) func(mask int) bool {
	ie, ok := ev.(intoEvaluator)
	if !ok {
		return func(mask int) bool {
			return !IsSorted(ev.Eval(ZeroOneInput(uint64(mask), n)))
		}
	}
	var pool = sync.Pool{New: func() any { s := make([]int, n); return &s }}
	return func(mask int) bool {
		bp := pool.Get().(*[]int)
		buf := *bp
		for i := 0; i < n; i++ {
			buf[i] = mask >> uint(i) & 1
		}
		ie.EvalInto(buf, buf)
		bad := !IsSorted(buf)
		pool.Put(bp)
		return bad
	}
}

// ZeroOne applies the 0-1 principle: it settles all 2^n inputs from
// {0,1}^n (in parallel across workers; 0 = GOMAXPROCS) and returns
// ok = true if every output is sorted. On failure, witness is the
// smallest-mask failing 0-1 input. n must be at most MaxZeroOneWires.
// Compilable evaluators run on the bit-sliced kernel, which scans the
// image of the first level, 64 vectors per block, and reads the
// witness off the failing lanes; others run on the scalar path, one
// Eval per mask. Both agree exactly. ZeroOne is ZeroOneCtx under
// context.Background().
func ZeroOne(n int, ev Evaluator, workers int) (ok bool, witness []int) {
	ok, witness, _ = ZeroOneCtx(context.Background(), n, ev, workers)
	return ok, witness
}

// ZeroOneCtx is ZeroOne under a context: cancellation is observed once
// per worker chunk (never per mask, so the kernel throughput is
// unchanged). On cancellation it returns a *par.ErrCanceled whose
// MasksChecked field records how many of the 2^n inputs the
// interrupted scan settled (for the image scan, the inputs its
// evaluated blocks stand for); ok and witness are then meaningless.
func ZeroOneCtx(ctx context.Context, n int, ev Evaluator, workers int) (ok bool, witness []int, err error) {
	if n > MaxZeroOneWires {
		panic(fmt.Sprintf("sortcheck.ZeroOne: n = %d exceeds %d (2^n inputs)", n, MaxZeroOneWires))
	}
	if p := compiled(n, ev); p != nil {
		mask, ok, err := zeroOneBits(ctx, p, workers)
		if err != nil {
			return false, nil, err
		}
		if ok {
			return true, nil, nil
		}
		metWitnesses.Inc()
		return false, ZeroOneInput(mask, n), nil
	}
	return zeroOneScalar(ctx, n, ev, workers)
}

// zeroOneScalar is the scalar-enumeration 0-1 check, one Eval per mask:
// ZeroOneCtx's fallback for evaluators that cannot be compiled. The
// per-mask progress counter is only maintained when the context is
// cancelable, so a Background run pays nothing for it.
func zeroOneScalar(ctx context.Context, n int, ev Evaluator, workers int) (ok bool, witness []int, err error) {
	total := 1 << uint(n)
	pred := failsZeroOne(n, ev)
	var tried int64
	if ctx.Done() != nil {
		inner := pred
		pred = func(mask int) bool {
			atomic.AddInt64(&tried, 1)
			return inner(mask)
		}
	}
	bad, cerr := par.Find(ctx, total, workers, pred)
	if cerr != nil {
		return false, nil, &par.ErrCanceled{
			Op:           "sortcheck.ZeroOneScalar",
			Cause:        cerr,
			MasksChecked: atomic.LoadInt64(&tried),
		}
	}
	if bad < 0 {
		metMasks.Add(int64(total))
		return true, nil, nil
	}
	metMasks.Add(int64(bad) + 1)
	metWitnesses.Inc()
	return false, ZeroOneInput(uint64(bad), n), nil
}

// zeroOneBits decides the 0-1 principle on the bit-sliced kernel in
// one scan of the image of the program's first level, and returns the
// smallest failing mask, or ok = true when there is none. Every input
// an image lane stands for fails with it, so the smallest failing mask
// is the least network.Image.Witness over the failing lanes: the scalar
// path's witness exactly. Once a failure is known, a block whose Least
// is not below it is skipped. On cancellation the error carries the
// inputs the evaluated blocks stand for.
func zeroOneBits(ctx context.Context, p *network.Program, workers int) (firstBad uint64, ok bool, err error) {
	im := p.Image()
	blocks, laneMask := im.Blocks()
	lanes := int64(mathbits.OnesCount64(laneMask))
	const none = ^uint64(0)
	var best atomic.Uint64 // the smallest failing mask found
	best.Store(none)
	var settled int64 // inputs the evaluated blocks stand for
	cerr := par.ForEachChunk(ctx, blocks, workers, par.DefaultGrain, func(lo, hi int) {
		bb := network.NewBitBatch(p)
		defer bb.FlushMetrics()
		var inputs, skipped int64
		defer func() {
			metMasks.Add(inputs)
			metEarlyExits.Add(skipped)
			atomic.AddInt64(&settled, inputs)
		}()
		for b := uint64(lo); b < uint64(hi); b++ {
			if cur := best.Load(); cur != none && im.Least(b) >= cur {
				skipped++
				continue
			}
			_, in := bb.LoadImage(im, b)
			bb.Eval()
			inputs += in * lanes
			if bad := bb.UnsortedLanes() & laneMask; bad != 0 {
				w := im.Witness(b, bad)
				for cur := best.Load(); w < cur && !best.CompareAndSwap(cur, w); cur = best.Load() {
				}
			}
		}
	})
	if cerr != nil {
		return 0, false, &par.ErrCanceled{
			Op:           "sortcheck.ZeroOne",
			Cause:        cerr,
			MasksChecked: atomic.LoadInt64(&settled),
		}
	}
	if w := best.Load(); w != none {
		return w, false, nil
	}
	return 0, true, nil
}

// ZeroOneFraction returns the fraction of the 2^n 0-1 inputs that the
// network sorts, exactly and in parallel: Compilable evaluators scan
// the image of the first level on the bit-sliced kernel, counting each
// sorted vector once per input it stands for; others enumerate every
// mask on the scalar path. n must be at most MaxZeroOneWires. On
// cancellation the returned fraction is meaningless (in-flight chunks
// are abandoned) and the *par.ErrCanceled reports the inputs settled.
func ZeroOneFraction(ctx context.Context, n int, ev Evaluator, workers int) (float64, error) {
	if n > MaxZeroOneWires {
		panic(fmt.Sprintf("sortcheck.ZeroOneFraction: n = %d exceeds %d", n, MaxZeroOneWires))
	}
	p := compiled(n, ev)
	if p == nil {
		return zeroOneFractionScalar(ctx, n, ev, workers)
	}
	im := p.Image()
	blocks, laneMask := im.Blocks()
	lanes := int64(mathbits.OnesCount64(laneMask))
	var good, settled int64
	cerr := par.ForEachChunk(ctx, blocks, workers, par.DefaultGrain, func(lo, hi int) {
		bb := network.NewBitBatch(p)
		defer bb.FlushMetrics()
		var g, s int64
		for b := lo; b < hi; b++ {
			_, in := bb.LoadImage(im, uint64(b))
			bb.Eval()
			g += in * (lanes - int64(mathbits.OnesCount64(bb.UnsortedLanes()&laneMask)))
			s += in * lanes
		}
		atomic.AddInt64(&good, g)
		atomic.AddInt64(&settled, s)
	})
	if cerr != nil {
		return 0, &par.ErrCanceled{
			Op:           "sortcheck.ZeroOneFraction",
			Cause:        cerr,
			MasksChecked: atomic.LoadInt64(&settled),
		}
	}
	total := int64(1) << uint(n)
	metMasks.Add(total)
	metWitnesses.Add(total - good)
	return float64(good) / float64(total), nil
}

// zeroOneFractionScalar is the scalar-enumeration sorted fraction:
// ZeroOneFraction's fallback for evaluators that cannot be compiled.
func zeroOneFractionScalar(ctx context.Context, n int, ev Evaluator, workers int) (float64, error) {
	total := 1 << uint(n)
	var tried int64
	countTried := ctx.Done() != nil
	fails := failsZeroOne(n, ev)
	good, cerr := par.SumInt64(ctx, total, workers, func(mask int) int64 {
		if countTried {
			atomic.AddInt64(&tried, 1)
		}
		if !fails(mask) {
			return 1
		}
		return 0
	})
	if cerr != nil {
		return 0, &par.ErrCanceled{
			Op:           "sortcheck.ZeroOneFractionScalar",
			Cause:        cerr,
			MasksChecked: atomic.LoadInt64(&tried),
		}
	}
	metMasks.Add(int64(total))
	metWitnesses.Add(int64(total) - good)
	return float64(good) / float64(total), nil
}

// MaxExhaustiveWires bounds Exhaustive: n! permutations must be
// enumerable.
const MaxExhaustiveWires = 9

// Exhaustive evaluates the network on all n! permutations of
// {0,...,n-1} and returns ok = true if every output is sorted; on
// failure, witness is a failing permutation. n must be at most
// MaxExhaustiveWires.
func Exhaustive(n int, ev Evaluator) (ok bool, witness []int) {
	if n > MaxExhaustiveWires {
		panic(fmt.Sprintf("sortcheck.Exhaustive: n = %d exceeds %d (n! inputs)", n, MaxExhaustiveWires))
	}
	data := make([]int, n)
	for i := range data {
		data[i] = i
	}
	p := compiled(n, ev)
	out := make([]int, n)
	witness = nil
	checked := int64(0)
	permute(data, func(in []int) bool {
		checked++
		if p != nil {
			p.EvalInto(out, in)
		} else {
			out = ev.Eval(in)
		}
		if !IsSorted(out) {
			witness = append([]int(nil), in...)
			return false
		}
		return true
	})
	metPerms.Add(checked)
	if witness != nil {
		metWitnesses.Inc()
	}
	return witness == nil, witness
}

// RandomPerms evaluates the network on trials uniformly random
// permutations drawn from rng and returns ok = true if all outputs are
// sorted; on failure, witness is the first failing permutation found.
// Compilable evaluators run through the compiled program into a reused
// buffer (no per-trial allocation).
func RandomPerms(n, trials int, ev Evaluator, rng *rand.Rand) (ok bool, witness []int) {
	in := make([]int, n)
	for i := range in {
		in[i] = i
	}
	p := compiled(n, ev)
	out := make([]int, n)
	for t := 0; t < trials; t++ {
		shuffleInts(in, rng)
		if p != nil {
			p.EvalInto(out, in)
		} else {
			out = ev.Eval(in)
		}
		if !IsSorted(out) {
			metPerms.Add(int64(t) + 1)
			metWitnesses.Inc()
			return false, append([]int(nil), in...)
		}
	}
	metPerms.Add(int64(trials))
	return true, nil
}

// SortedFraction estimates, by Monte Carlo over trials random
// permutations, the probability that the network sorts a uniformly
// random input. Deterministic given seed; trials are split across
// workers (0 = GOMAXPROCS), each with an independent stream derived
// from seed. The slot layout (slot s runs ceil/floor(trials/w) trials
// on stream seed + s*1_000_003) is part of the contract: results are
// byte-identical for a given (seed, workers) regardless of evaluation
// path.
func SortedFraction(n, trials int, ev Evaluator, seed int64, workers int) float64 {
	if trials <= 0 {
		return 0
	}
	w := par.Workers(trials, workers)
	counts := make([]int, w)
	for i := 0; i < trials; i++ {
		counts[i%w]++
	}
	p := compiled(n, ev)
	metFracTrials.Add(int64(trials))
	var good int64
	// Grain 1: there are only w slot-chunks, each carrying a full share
	// of the trials, so the small-n sequential fallback must not fire.
	par.ForEachChunk(context.Background(), w, w, 1, func(lo, hi int) {
		in := make([]int, n)
		out := make([]int, n)
		var g int64
		for slot := lo; slot < hi; slot++ {
			rng := rand.New(rand.NewSource(seed + int64(slot)*1_000_003))
			for i := range in {
				in[i] = i
			}
			for t := 0; t < counts[slot]; t++ {
				shuffleInts(in, rng)
				if p != nil {
					p.EvalInto(out, in)
				} else {
					out = ev.Eval(in)
				}
				if IsSorted(out) {
					g++
				}
			}
		}
		atomic.AddInt64(&good, g)
	})
	return float64(good) / float64(trials)
}

// Inversions returns the number of inverted pairs (i < j with
// xs[i] > xs[j]) via merge counting in O(n log n).
func Inversions(xs []int) int64 {
	buf := make([]int, len(xs))
	work := append([]int(nil), xs...)
	return mergeCount(work, buf)
}

// MaxDislocation returns the maximum distance between any element's
// position and the position it would occupy in sorted order (ties
// resolved by original position, i.e. stable ranking). A sorted slice
// has dislocation 0.
func MaxDislocation(xs []int) int {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	// Stable sort indices by value; ties keep original position order.
	sort.SliceStable(idx, func(i, j int) bool { return xs[idx[i]] < xs[idx[j]] })
	maxd := 0
	for rank, pos := range idx {
		d := pos - rank
		if d < 0 {
			d = -d
		}
		if d > maxd {
			maxd = d
		}
	}
	return maxd
}

func mergeCount(xs, buf []int) int64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	mid := n / 2
	inv := mergeCount(xs[:mid], buf[:mid]) + mergeCount(xs[mid:], buf[mid:])
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if xs[i] <= xs[j] {
			buf[k] = xs[i]
			i++
		} else {
			buf[k] = xs[j]
			j++
			inv += int64(mid - i)
		}
		k++
	}
	for i < mid {
		buf[k] = xs[i]
		i++
		k++
	}
	for j < n {
		buf[k] = xs[j]
		j++
		k++
	}
	copy(xs, buf[:n])
	return inv
}

// permute invokes f on each permutation of data until f returns false.
func permute(data []int, f func([]int) bool) bool {
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == 1 {
			return f(data)
		}
		for i := 0; i < k; i++ {
			if !rec(k - 1) {
				return false
			}
			if k%2 == 0 {
				data[i], data[k-1] = data[k-1], data[i]
			} else {
				data[0], data[k-1] = data[k-1], data[0]
			}
		}
		return true
	}
	return rec(len(data))
}

func shuffleInts(xs []int, rng *rand.Rand) {
	for i := len(xs) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
