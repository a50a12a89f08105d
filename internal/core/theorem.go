package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"shufflenet/internal/delta"
	"shufflenet/internal/obs"
	"shufflenet/internal/par"
	"shufflenet/internal/pattern"
)

// BlockReport records the adversary's state after one block of an
// iterated reverse delta network — the per-block telemetry surfaced by
// `adversary -v` and recorded in run journals.
type BlockReport struct {
	Block      int     // block index
	Levels     int     // levels of the block's trees (= recursion depth)
	Before     int     // |D| entering the block
	Survivors  int     // |B| across all sets after the block
	SetCount   int     // number of nonempty surviving noncolliding sets
	Collisions int     // tracked wires charged to collision sets in the block
	ChosenSet  int     // index i0 of the largest set kept
	After      int     // |D| = size of the kept set
	PaperBound float64 // n / lg^{4(d+1)} n, the Theorem 4.1 guarantee
}

// Analysis is the outcome of Theorem41Ctx: a pattern over the network's
// original input wires whose [M_0]-set D is noncolliding in the entire
// iterated network.
type Analysis struct {
	// P is the final input pattern over original input wires; it uses
	// only S_0, M_0, L_0.
	P pattern.Pattern
	// D is the [M_0]-set of P: wires whose values are pairwise never
	// compared by the network under any refinement of P.
	D []int
	// Reports describes the per-block evolution.
	Reports []BlockReport
	// K is the averaging parameter used (lg n unless overridden).
	K int
}

// Theorem41Ctx runs the constructive Theorem 4.1 on an iterated
// reverse delta network: it pushes a pattern through the blocks,
// applying Lemma41 to every tree of every block and keeping, after each
// block, the largest surviving noncolliding set (renamed to M_0 by
// Lemma 3.4's ρ). k is the averaging parameter, at most MaxK; k <= 0
// selects the paper's choice k = lg n.
//
// On cancellation it returns the analysis as of the last *completed*
// block — the pattern and set D are exactly what the adversary holds
// at that point, so the partial reports are honest telemetry, not an
// approximation — plus a *par.ErrCanceled whose BlocksDone and
// Survivors record the cut point. The in-flight block is discarded
// (Lemma 4.1's induction has no meaningful half-state). Callers must
// not derive a certificate from a canceled run: D is noncolliding only
// for the prefix of the network actually processed.
func Theorem41Ctx(ctx context.Context, it *delta.Iterated, k int) (*Analysis, error) {
	return Theorem41Prog(ctx, it, k, nil)
}

// Theorem41Prog is Theorem41Ctx with live telemetry: when prog is
// non-nil a registered source reports blocks done/total (driving the
// engine's completion fraction and ETA) and the adversary's current
// survivor count after the last completed block. Telemetry is
// read-only; the analysis is identical with it on or off.
func Theorem41Prog(ctx context.Context, it *delta.Iterated, k int, prog *obs.Progress) (*Analysis, error) {
	inc := NewIncremental(it.Slots(), k)
	blocks := it.Blocks()
	var blocksDone, survivors atomic.Int64
	if prog != nil {
		survivors.Store(int64(len(inc.D())))
		unregister := prog.Register(func(s *obs.Sample) {
			bd := blocksDone.Load()
			s.Field("adversary.blocks_done", bd)
			s.Field("adversary.blocks_total", int64(blocks))
			s.Field("adversary.survivors", survivors.Load())
			s.SetFraction(float64(bd), float64(blocks))
		})
		defer unregister()
	}
	for b := 0; b < blocks; b++ {
		if _, err := inc.AddBlock(ctx, it.Pre(b), it.Block(b)); err != nil {
			return inc.Analysis(), &par.ErrCanceled{
				Op:         "core.Theorem41",
				Cause:      ctx.Err(),
				BlocksDone: b,
				Survivors:  len(inc.D()),
			}
		}
		blocksDone.Store(int64(b + 1))
		survivors.Store(int64(len(inc.D())))
		if prog.Enabled() {
			prog.Event("block", map[string]any{
				"block":     b,
				"survivors": len(inc.D()),
			})
		}
		if inc.Dead() {
			break
		}
	}
	return inc.Analysis(), nil
}

// paperBound returns n / lg^{4d} n (Theorem 4.1's guaranteed survival
// after d full-width blocks with k = lg n).
func paperBound(n, d int) float64 {
	return float64(n) / math.Pow(math.Log2(float64(n)), float64(4*d))
}

// lg returns floor(log2 n) for n >= 1.
func lg(n int) int {
	l := 0
	for 1<<uint(l+1) <= n {
		l++
	}
	return l
}

// String summarizes the analysis.
func (an *Analysis) String() string {
	return fmt.Sprintf("analysis[k=%d blocks=%d |D|=%d]", an.K, len(an.Reports), len(an.D))
}
