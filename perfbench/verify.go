package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"

	"shufflenet/internal/bits"
	"shufflenet/internal/core"
	"shufflenet/internal/delta"
	"shufflenet/internal/halver"
	"shufflenet/internal/network"
	"shufflenet/internal/pattern"
	"shufflenet/internal/sortcheck"
)

// expected is the reference answer for one request, computed by
// calling the engine directly.
type expected struct {
	err     error // the reference call failed: every reply counts as wrong
	sorts   bool  // check
	witness []int
	eps     float64 // halver
	cert    bool    // adversary: the analysis yields a certificate
	size    int     // optimal
	pattern string
	set     []int
}

// verifier checks replies against direct engine calls. The traced
// run's replays fill its reference table from every client goroutine.
type verifier struct {
	mu   sync.Mutex
	want map[*request]*expected
	good map[*request][]byte // reply bodies already verified
}

func newVerifier() *verifier {
	return &verifier{want: map[*request]*expected{}, good: map[*request][]byte{}}
}

// compute calls the engine entry point the server calls for r; with
// rec set, each layer call is a span of request id.
func compute(r *request, c *network.Network, rec *recorder, id int64) *expected {
	e := &expected{}
	n := c.Wires()
	switch r.kind {
	case kCheck:
		rec.timed(0, id, "sortcheck.zeroone", "sortcheck", func() { e.sorts, e.witness = sortcheck.ZeroOne(n, c, 0) })
	case kHalver:
		rec.timed(0, id, "halver.epsilon", "halver", func() { e.eps = halver.Epsilon(c, 0) })
	case kAdversary:
		var it *delta.Iterated
		ok := false
		if bits.IsPow2(n) {
			rec.timed(0, id, "delta.decompose", "delta", func() { it, ok = delta.DecomposeIterated(c, bits.Lg(n)) })
		}
		if !ok {
			e.err = errors.New("not an iterated reverse delta network")
			return e
		}
		var an *core.Analysis
		rec.timed(0, id, "core.theorem41", "core", func() { an, e.err = core.Theorem41Ctx(context.Background(), it, 0) })
		if e.err != nil {
			return e
		}
		cert, err := an.Certificate()
		switch {
		case err == nil:
			e.cert = true
			rec.timed(0, id, "core.certificate_verify", "core", func() { e.err = cert.Verify(c) })
		case !errors.Is(err, core.ErrSetTooSmall):
			e.err = err
		}
	case kOptimal:
		rec.timed(0, id, "core.optimal", "core", func() {
			var p pattern.Pattern
			e.size, p, e.set, e.err = core.OptimalNoncollidingOpt(context.Background(), c, core.OptimalOptions{})
			if e.err == nil {
				e.pattern = p.String()
			}
		})
	}
	return e
}

// replay re-runs, for one traced round trip, the layer calls the
// server made: parse, then compile and the engine entry point unless
// the reply came from the cache.
func (v *verifier) replay(rec *recorder, s *sample) {
	var c *network.Network
	rec.timed(0, s.id, "network.parse", "network", func() { c, _ = network.ReadText(strings.NewReader(s.req.text)) })
	if c == nil || s.cache == "hit" {
		return
	}
	var prog *network.Program
	rec.timed(0, s.id, "network.compile", "network", func() { prog = c.Compile() })
	if s.req.kind == kProbe {
		rec.timed(0, s.id, "network.evalbits", "network", func() { evalMasks(prog, s.req.masks) })
		return
	}
	e := compute(s.req, c, rec, s.id)
	v.mu.Lock()
	v.want[s.req] = e
	v.mu.Unlock()
}

// evalMasks packs probe masks 64 to a word, as the coalescer does, and
// runs the SWAR kernel over them.
func evalMasks(prog *network.Program, masks []uint64) {
	n := prog.Wires()
	state := make([]uint64, n)
	for base := 0; base < len(masks); base += 64 {
		clear(state)
		for j := base; j < len(masks) && j < base+64; j++ {
			for w := 0; w < n; w++ {
				state[w] |= masks[j] >> uint(w) & 1 << uint(j-base)
			}
		}
		prog.EvalBits(state)
	}
}

// checkAll verifies every sample, after the load has stopped, and
// counts the failures. A reply byte-equal to an already verified reply
// to the same request (a cache replay) is accepted as is.
func (v *verifier) checkAll(samples []sample) *report {
	rep := &report{attempted: int64(len(samples))}
	shown := 0
	for i := range samples {
		s := &samples[i]
		err := v.check(s)
		if err == nil {
			continue
		}
		rep.failed++
		if s.status == http.StatusOK {
			rep.wrong++
		}
		if shown < 5 {
			shown++
			fmt.Fprintf(os.Stderr, "perfbench: %s request %d: %v\n", kindName[s.req.kind], s.id, err)
		}
	}
	return rep
}

func (v *verifier) check(s *sample) error {
	if s.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", s.status, s.body)
	}
	if prev, ok := v.good[s.req]; ok && bytes.Equal(prev, s.body) {
		return nil
	}
	c, err := network.ReadText(strings.NewReader(s.req.text))
	if err != nil {
		return err
	}
	if s.req.kind == kProbe {
		return checkProbe(c, s.req.masks, s.body)
	}
	e, ok := v.want[s.req]
	if !ok {
		e = compute(s.req, c, nil, 0)
		v.want[s.req] = e
	}
	if e.err != nil {
		return fmt.Errorf("reference call failed: %w", e.err)
	}
	if err := e.match(s.req.kind, c, s.body); err != nil {
		return err
	}
	v.good[s.req] = s.body
	return nil
}

// match compares a reply body with the reference answer.
func (e *expected) match(kind int, c *network.Network, body []byte) error {
	var r struct {
		N               int             `json:"n"`
		Sorts           *bool           `json:"sorts"`
		Witness         []int           `json:"witness"`
		Epsilon         float64         `json:"epsilon"`
		SortingRuledOut bool            `json:"sorting_ruled_out"`
		Certificate     json.RawMessage `json:"certificate"`
		OptimalD        int             `json:"optimal_d"`
		Pattern         string          `json:"pattern"`
		Set             []int           `json:"set"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	if r.N != c.Wires() {
		return fmt.Errorf("reply for %d wires, circuit has %d", r.N, c.Wires())
	}
	switch kind {
	case kCheck:
		if r.Sorts == nil || *r.Sorts != e.sorts || !slices.Equal(r.Witness, e.witness) {
			return fmt.Errorf("reply %s, sortcheck.ZeroOne says sorts=%v witness=%v", body, e.sorts, e.witness)
		}
	case kHalver:
		if r.Epsilon != e.eps {
			return fmt.Errorf("epsilon %v, halver.Epsilon says %v", r.Epsilon, e.eps)
		}
	case kAdversary:
		if r.SortingRuledOut != e.cert || (len(r.Certificate) > 0) != e.cert {
			return fmt.Errorf("certificate present %v, direct analysis %v", r.SortingRuledOut, e.cert)
		}
		if e.cert {
			cert, err := core.ReadCertificateJSON(bytes.NewReader(r.Certificate))
			if err != nil {
				return err
			}
			if err := cert.Verify(c); err != nil {
				return fmt.Errorf("certificate does not verify: %w", err)
			}
		}
	case kOptimal:
		p, err := parsePattern(r.Pattern, c.Wires())
		if err != nil {
			return err
		}
		if !pattern.Noncolliding(c, p, pattern.M(0)) {
			return errors.New("witness pattern collides")
		}
		if !slices.Equal(p.Set(pattern.M(0)), r.Set) || len(r.Set) != r.OptimalD {
			return fmt.Errorf("set %v of size %d is not the pattern's M0-set", r.Set, r.OptimalD)
		}
		if r.OptimalD != e.size || r.Pattern != e.pattern || !slices.Equal(r.Set, e.set) {
			return fmt.Errorf("optimum %d %q, direct solve %d %q", r.OptimalD, r.Pattern, e.size, e.pattern)
		}
	}
	return nil
}

// checkProbe compares probe verdicts with scalar evaluation.
func checkProbe(c *network.Network, masks []uint64, body []byte) error {
	var r struct {
		Probes []struct {
			Mask   uint64 `json:"mask"`
			Sorted bool   `json:"sorted"`
		} `json:"probes"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	if len(r.Probes) != len(masks) {
		return fmt.Errorf("%d verdicts for %d masks", len(r.Probes), len(masks))
	}
	prog := c.Compile()
	for i, pv := range r.Probes {
		want := sortcheck.IsSorted(prog.Eval(sortcheck.ZeroOneInput(masks[i], c.Wires())))
		if pv.Mask != masks[i] || pv.Sorted != want {
			return fmt.Errorf("mask %d: sorted %v, want %v", masks[i], pv.Sorted, want)
		}
	}
	return nil
}

// parsePattern reads Pattern.String output over {S0, M0, L0}.
func parsePattern(s string, n int) (pattern.Pattern, error) {
	f := strings.Fields(s)
	if len(f) != n {
		return nil, fmt.Errorf("pattern has %d symbols, want %d", len(f), n)
	}
	p := make(pattern.Pattern, n)
	for i, sym := range f {
		switch sym {
		case "S0":
			p[i] = pattern.S(0)
		case "M0":
			p[i] = pattern.M(0)
		case "L0":
			p[i] = pattern.L(0)
		default:
			return nil, fmt.Errorf("pattern symbol %q", sym)
		}
	}
	return p, nil
}
