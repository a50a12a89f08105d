package experiments

import (
	"math"
	"math/rand"

	"shufflenet/internal/bits"
	"shufflenet/internal/core"
	"shufflenet/internal/delta"
	"shufflenet/internal/perm"
	"shufflenet/internal/randnet"
	"shufflenet/internal/sortcheck"
)

// E11Witnesses measures 0-1 witness density, the quantity behind the
// Section 5 "representative set" discussion. The paper rules out small
// representative 0-1 test sets by invoking Leighton–Plaxton networks
// that sort all but a 2^(-2^(o(lg n/lg lg n))) fraction of inputs —
// non-sorters with astronomically thin witness sets. Our substitution
// (DESIGN.md) does not reach that regime, and this table quantifies the
// gap honestly: for the NAIVE shallow shuffle-based networks built
// here, witnesses are abundant (almost every 0-1 input fails), so
// random testing catches them instantly — while the adversary still
// names a specific witness pair directly, which is the part of the
// paper this repository makes constructive.
func E11Witnesses(cfg Config) *Table {
	t := &Table{
		ID:    "E11",
		Title: "0-1 witness density of shallow shuffle-based networks",
		Claim: "Section 5 context: ruling out small representative sets needs nearly-sorting networks (thin witnesses); naive shallow networks sit at the opposite extreme (dense witnesses) — the measured gap our LP substitution leaves open",
		Columns: []string{
			"network", "n", "depth", "unsorted 0-1 inputs", "of 2^n", "escape prob", "adversary cert",
		},
	}
	n := 16
	total := float64(int64(1) << uint(n))
	d := bits.Lg(n)
	rng := rand.New(rand.NewSource(cfg.Seed))

	addRow := func(name string, depth int, ev sortcheck.Evaluator, cert string) bool {
		frac, err := sortcheck.ZeroOneFraction(cfg.Context(), n, ev, cfg.Workers)
		if err != nil {
			t.NoteCanceled(err)
			return false
		}
		unsorted := (1 - frac) * total
		t.AddRow(name, n, depth, math.Round(unsorted), total, frac, cert)
		return true
	}

	// Truncated Stone bitonic at pass boundaries.
	passes := []int{1, 2, 3}
	if cfg.Quick {
		passes = []int{1, 2}
	}
	for _, p := range passes {
		r := randnet.TruncatedBitonic(n, p*d)
		if !addRow("bitonic/pass", r.Depth(), r, "-") {
			return t
		}
	}

	// Two-block iterated butterflies: provably non-sorting with a
	// verified certificate.
	it := delta.NewIterated(n)
	it.AddBlock(nil, delta.Butterfly(d))
	it.AddBlock(perm.Random(n, rng), delta.Butterfly(d))
	circ, _ := it.ToNetwork()
	cert := "none"
	an, aerr := core.Theorem41Ctx(cfg.Context(), it, 0)
	if aerr != nil {
		t.NoteCanceled(aerr)
		return t
	}
	if len(an.D) >= 2 {
		if c, err := an.Certificate(); err == nil && c.Verify(circ) == nil {
			cert = "verified"
		}
	}
	if !addRow("butterfly×2", circ.Depth(), circ, cert) {
		return t
	}

	// Full bitonic: control row, zero witnesses.
	full := randnet.TruncatedBitonic(n, d*d)
	if !addRow("bitonic/full", full.Depth(), full, "-") {
		return t
	}

	t.Note("escape prob = fraction of the 2^16 0-1 inputs the network sorts (exhaustive); naive shallow networks sort almost nothing, so their witnesses are dense — the Leighton–Plaxton nearly-sorters the paper invokes are precisely the networks that push escape prob to 1 − 2^(−2^(o(lg n/lg lg n)))")
	return t
}
