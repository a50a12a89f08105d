// Package halver implements ε-halvers, the building block of
// AKS-style sorting networks.
//
// The paper cites the AKS network [1] as the O(lg n)-depth comparison
// point but (like everyone) does not construct it; this package is the
// substitution documented in DESIGN.md: exact, *verified* ε-halvers
// built from repeated random cross-matchings, plus the recursive
// halver cascade that nearly-sorts almost all inputs at O(lg n) depth —
// the phenomenon Section 5 appeals to when bounding what the lower
// bound cannot show.
//
// A comparator network on 2m wires is an ε-halver if, for every
// 1 <= k <= m, at most ε·k of the k smallest values end in the upper
// half and at most ε·k of the k largest values end in the lower half.
// By the 0-1 principle it suffices to check all 0-1 inputs, which
// Epsilon does exactly.
package halver

import (
	"context"
	"fmt"
	mathbits "math/bits"
	"math/rand"
	"sync"
	"sync/atomic"

	"shufflenet/internal/bits"
	"shufflenet/internal/network"
	"shufflenet/internal/obs"
	"shufflenet/internal/par"
	"shufflenet/internal/perm"
)

// Halver metrics: the 2^n inputs each completed Epsilon call settles
// (added once per call, never per mask; the kernel words the image
// scan took are network.evalbits.words) and the most recently measured
// ε.
var (
	metEpsMasks = obs.C("halver.epsilon.masks")
	metEpsCalls = obs.C("halver.epsilon.calls")
	metEpsLast  = obs.FG("halver.epsilon.last")
)

// CrossMatchings returns a network of `passes` levels on n = 2m wires,
// each level a uniformly random perfect matching between the lower half
// and the upper half, with every comparator directing its minimum to
// the lower-half wire. Repeated random matchings are expanders with
// high probability, so for any ε > 0 a constant number of passes yields
// an ε-halver w.h.p.; use Epsilon to verify an instance exactly.
func CrossMatchings(n, passes int, rng *rand.Rand) *network.Network {
	if n < 2 || n%2 != 0 {
		panic(fmt.Sprintf("halver.CrossMatchings: n = %d must be even and >= 2", n))
	}
	m := n / 2
	c := network.New(n)
	for p := 0; p < passes; p++ {
		match := perm.Random(m, rng)
		lv := make(network.Level, m)
		for i := 0; i < m; i++ {
			lv[i] = network.Comparator{Min: i, Max: m + match[i]}
		}
		c.AddLevel(lv)
	}
	return c
}

// MaxEpsilonWires bounds Epsilon's exhaustive 0-1 enumeration. The
// bit-sliced kernel settles 64 inputs per pass, which is what makes
// widths this large practical (the cap was 24 before the kernel).
const MaxEpsilonWires = 28

// laneClass[c] has bit j set when j has c ones. Lane j of an image
// block (network.BitBatch.LoadImage) carries j on the lane wires, so
// its ones count is the block's plus c = popcount(j): each class is
// one ones count per block.
var laneClass = func() (cl [7]uint64) {
	for j := uint(0); j < 64; j++ {
		cl[mathbits.OnesCount(j)] |= 1 << j
	}
	return cl
}()

// Epsilon returns the exact halving quality of the network: the
// smallest ε such that c is an ε-halver. It settles all 2^n 0-1 inputs
// by scanning the image of the network's first level (3^k·2^(n−2k)
// vectors for a level of k comparators, which every input maps onto
// with its ones count kept) in parallel on the bit-sliced kernel: 64
// vectors per block, with each lane's count of ones in the lower half
// (which also fixes its count of zeros in the upper half) accumulated
// in vertical bit-plane counters rather than per-lane loops, and read
// back once per popcount class of lanes (see EpsilonCtx). A perfect
// halver has ε = 0; a network that does nothing has ε = 1. n must be
// at most MaxEpsilonWires. Epsilon is EpsilonCtx under
// context.Background().
func Epsilon(c *network.Network, workers int) float64 {
	eps, _ := EpsilonCtx(context.Background(), c, workers)
	return eps
}

// EpsilonCtx is Epsilon under a context. Cancellation is observed once
// per worker chunk. On cancellation the returned value is the maximum
// misplacement ratio over the chunks that finished — a valid *lower*
// bound on the true ε (ε can only grow as more inputs are seen) — and
// the *par.ErrCanceled's MasksChecked counts the inputs the finished
// blocks stand for.
//
// The scan is exact: an input's output is its image's, and the image
// keeps its ones count, which fixes the denominator. The readout keeps,
// per denominator k (the ones count of a mask whose lower half is
// read, or the zeros count of one whose upper half is), the largest
// misplacement count seen, and divides once per k when the scan ends.
// ε is bit-identical to a per-mask maximum of count/k: for a fixed
// k > 0 a correctly rounded divide is monotone in the count, so
// max(count)/k == max(count/k).
func EpsilonCtx(ctx context.Context, c *network.Network, workers int) (float64, error) {
	n := c.Wires()
	if n > MaxEpsilonWires {
		panic(fmt.Sprintf("halver.Epsilon: n = %d exceeds %d", n, MaxEpsilonWires))
	}
	if n%2 != 0 {
		panic("halver.Epsilon: odd wire count")
	}
	m := n / 2
	prog := c.Compile()
	im := prog.Image()
	blocks, laneMask := im.Blocks()
	lanes := int64(mathbits.OnesCount64(laneMask))
	var classes [len(laneClass)]uint64
	for i, cl := range laneClass {
		classes[i] = cl & laneMask
	}
	var mu sync.Mutex
	var worst counts
	var settled int64 // inputs the settled blocks stand for
	cerr := par.ForEachChunk(ctx, blocks, workers, par.DefaultGrain, func(lo, hi int) {
		bb := network.NewBitBatch(prog)
		defer bb.FlushMetrics()
		var local counts
		var inputs int64
		for b := lo; b < hi; b++ {
			blockOnes, in := bb.LoadImage(im, uint64(b))
			inputs += in * lanes
			out := bb.Eval()
			// Vertical counters: plane p of low[ ] holds bit p of the
			// per-lane count of ones on the lower-half wires. m <= 14 <
			// 2^5, so five planes cannot overflow.
			var low [5]uint64
			for i := 0; i < m; i++ {
				addPlane(&low, out[i])
			}
			// The block's wires are constant across it, so a class's
			// ones count is the block's share plus the class.
			for cl, sel := range classes {
				ones := blockOnes + cl
				if sel == 0 || ones == 0 || ones == n {
					continue
				}
				// k largest = the `ones` 1-values; misplaced = ones in
				// the lower half. Meaningful when ones <= m.
				k, misplaced := ones, maxCount(&low, sel)
				if ones > m {
					// k smallest = the zeros; misplaced = zeros in the
					// upper half. Comparators move values and never
					// make them, so a lane with c ones in the lower
					// half holds c + zeros - m zeros in the upper one:
					// the lane with the most ones below has the most
					// zeros above. (At ones == m both sides read the
					// same count.)
					k = n - ones
					misplaced += k - m
				}
				local[k] = max(local[k], misplaced)
			}
		}
		mu.Lock()
		for k, v := range local {
			worst[k] = max(worst[k], v)
		}
		mu.Unlock()
		atomic.AddInt64(&settled, inputs)
	})
	eps := worst.ratio() // ForEachChunk has waited for every chunk
	if cerr != nil {
		return eps, &par.ErrCanceled{
			Op:           "halver.Epsilon",
			Cause:        cerr,
			MasksChecked: atomic.LoadInt64(&settled),
		}
	}
	metEpsCalls.Inc()
	metEpsMasks.Add(int64(1) << uint(n))
	metEpsLast.Set(eps)
	return eps, nil
}

// counts[k] is the largest misplacement count seen among the masks
// whose denominator is k (1 <= k <= m); index 0 is unused.
type counts [MaxEpsilonWires/2 + 1]int

// ratio divides each denominator's largest count once and returns the
// largest quotient: ε over the masks the counts cover.
func (w *counts) ratio() float64 {
	eps := 0.0
	for k := 1; k < len(w); k++ {
		if r := float64(w[k]) / float64(k); r > eps {
			eps = r
		}
	}
	return eps
}

// addPlane ripple-carry adds one bit per lane (the set bits of w) into
// the vertical counter planes.
func addPlane(planes *[5]uint64, w uint64) {
	for i := 0; i < len(planes) && w != 0; i++ {
		carry := planes[i] & w
		planes[i] ^= w
		w = carry
	}
}

// maxCount returns the largest count among the lanes in sel, read top
// plane first: when some lane still in the running has plane p set,
// the maximum has bit p and only those lanes stay in the running.
func maxCount(planes *[5]uint64, sel uint64) int {
	c := 0
	for p := len(planes) - 1; p >= 0; p-- {
		if t := sel & planes[p]; t != 0 {
			sel = t
			c |= 1 << p
		}
	}
	return c
}

// IsEpsilonHalver reports whether c is an ε-halver for the given ε
// (exact, via Epsilon).
func IsEpsilonHalver(c *network.Network, eps float64, workers int) bool {
	return Epsilon(c, workers) <= eps+1e-12
}

// Cascade returns the recursive halver network on n = 2^d wires: apply
// `passes` random cross-matchings at the full width, then recurse on
// the two halves, down to blocks of 2. Depth is passes·lg n — an
// O(lg n)-depth network that nearly sorts almost all inputs when passes
// is a sufficiently large constant (the AKS skeleton without the
// error-correction machinery).
func Cascade(n, passes int, rng *rand.Rand) *network.Network {
	bits.Lg(n)
	c := network.New(n)
	addCascade(c, 0, n, passes, rng)
	return c
}

// addCascade appends the levels for the block [off, off+size); sibling
// blocks at the same scale are merged into shared levels.
func addCascade(c *network.Network, off, size, passes int, rng *rand.Rand) {
	for scale := size; scale >= 2; scale /= 2 {
		blocks := size / scale
		for p := 0; p < passes; p++ {
			lv := network.Level{}
			for b := 0; b < blocks; b++ {
				base := off + b*scale
				m := scale / 2
				match := perm.Random(m, rng)
				for i := 0; i < m; i++ {
					lv = append(lv, network.Comparator{Min: base + i, Max: base + m + match[i]})
				}
			}
			c.AddLevel(lv)
		}
	}
}
