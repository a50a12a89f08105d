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

// Halver metrics: masks exhausted per Epsilon call (added once per
// call, never per mask) and the most recently measured ε.
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

// Epsilon returns the exact halving quality of the network: the
// smallest ε such that c is an ε-halver, computed by exhausting all
// 2^n 0-1 inputs in parallel on the bit-sliced kernel: 64 masks per
// block, with the per-lane misplacement counts (ones in the lower
// half, zeros in the upper half) accumulated in vertical bit-plane
// counters rather than per-mask loops. A perfect halver has ε = 0; a
// network that does nothing has ε = 1. n must be at most
// MaxEpsilonWires. Epsilon is EpsilonCtx under context.Background().
func Epsilon(c *network.Network, workers int) float64 {
	eps, _ := EpsilonCtx(context.Background(), c, workers)
	return eps
}

// EpsilonCtx is Epsilon under a context. Cancellation is observed once
// per worker chunk. On cancellation the returned value is the maximum
// misplacement ratio over the masks settled so far — a valid *lower*
// bound on the true ε (ε can only grow as more masks are seen) — and
// the *par.ErrCanceled reports how many masks were settled.
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
	blocks, laneMask := network.ZeroOneBlocks(n)
	lanes := mathbits.OnesCount64(laneMask)
	var mu sync.Mutex
	eps := 0.0
	var scanned int64
	cerr := par.ForEachChunk(ctx, blocks, workers, par.DefaultGrain, func(lo, hi int) {
		bb := network.NewBitBatch(prog)
		defer bb.FlushMetrics()
		local := 0.0
		for b := lo; b < hi; b++ {
			bb.LoadBlock(uint64(b))
			out := bb.Eval()
			// Vertical counters: plane p of low[ ] holds bit p of the
			// per-lane count of ones on the lower-half wires; highZ
			// likewise counts zeros on the upper-half wires. m <= 14 <
			// 2^5, so five planes cannot overflow.
			var low, highZ [5]uint64
			for i := 0; i < m; i++ {
				addPlane(&low, out[i])
			}
			for i := m; i < n; i++ {
				addPlane(&highZ, ^out[i])
			}
			base := uint64(b) * 64
			for j := 0; j < lanes; j++ {
				ones := mathbits.OnesCount64(base + uint64(j))
				if ones == 0 || ones == n {
					continue
				}
				// k largest = the `ones` 1-values; misplaced = ones in
				// the lower half. Meaningful when ones <= m.
				if ones <= m {
					if r := float64(planeCount(&low, j)) / float64(ones); r > local {
						local = r
					}
				}
				// k smallest = the zeros; misplaced = zeros in the
				// upper half. Meaningful when zeros <= m.
				if zeros := n - ones; zeros <= m {
					if r := float64(planeCount(&highZ, j)) / float64(zeros); r > local {
						local = r
					}
				}
			}
		}
		mu.Lock()
		if local > eps {
			eps = local
		}
		mu.Unlock()
		atomic.AddInt64(&scanned, int64(hi-lo))
	})
	if cerr != nil {
		mu.Lock()
		partial := eps
		mu.Unlock()
		return partial, &par.ErrCanceled{
			Op:           "halver.Epsilon",
			Cause:        cerr,
			MasksChecked: atomic.LoadInt64(&scanned) * int64(lanes),
		}
	}
	metEpsCalls.Inc()
	metEpsMasks.Add(int64(1) << uint(n))
	metEpsLast.Set(eps)
	return eps, nil
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

// planeCount reads lane j's count back out of the vertical planes.
func planeCount(planes *[5]uint64, j int) int {
	c := 0
	for i := 0; i < len(planes); i++ {
		c |= int(planes[i]>>uint(j)&1) << uint(i)
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
