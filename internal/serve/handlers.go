package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"shufflenet/internal/bits"
	"shufflenet/internal/core"
	"shufflenet/internal/delta"
	"shufflenet/internal/halver"
	"shufflenet/internal/par"
	"shufflenet/internal/sortcheck"
)

// checkResponse answers /v1/check. In full mode Sorts carries the 0-1
// verdict and, when false, Witness/WitnessMask the smallest failing
// 0-1 input. In probe mode Probes carries one verdict per submitted
// mask, in submission order.
type checkResponse struct {
	N     int   `json:"n"`
	Depth int   `json:"depth"`
	Size  int   `json:"size"`
	Sorts *bool `json:"sorts,omitempty"`
	// Witness is the smallest-mask failing 0-1 input (bit i of
	// WitnessMask = entry i), present only when Sorts is false.
	Witness     []int          `json:"witness,omitempty"`
	WitnessMask *uint64        `json:"witness_mask,omitempty"`
	Probes      []probeVerdict `json:"probes,omitempty"`
}

type probeVerdict struct {
	Mask   uint64 `json:"mask"`
	Sorted bool   `json:"sorted"`
}

func (s *Server) handleCheck(ctx context.Context, req *request) (handlerResult, error) {
	c, err := parseNetwork(req)
	if err != nil {
		return handlerResult{}, err
	}
	n := c.Wires()
	res := handlerResult{n: n}

	if len(req.Inputs) > 0 {
		if n > 64 {
			return res, errf(http.StatusUnprocessableEntity,
				"probe mode handles at most 64 wires (masks are 64-bit); the network has %d", n)
		}
		if n < 64 {
			for _, m := range req.Inputs {
				if m >= 1<<uint(n) {
					return res, errf(http.StatusBadRequest,
						"input mask %d exceeds the %d-wire network's 2^%d masks", m, n, n)
				}
			}
		}
		ch := s.co.submit(canonicalKey(c), c.Compile(), req.Inputs)
		select {
		case sorted := <-ch:
			probes := make([]probeVerdict, len(sorted))
			for i, ok := range sorted {
				probes[i] = probeVerdict{Mask: req.Inputs[i], Sorted: ok}
			}
			body, err := json.Marshal(checkResponse{
				N: n, Depth: c.Depth(), Size: c.Size(), Probes: probes,
			})
			if err != nil {
				return res, err
			}
			res.body = body
			return res, nil
		case <-ctx.Done():
			return res, &par.ErrCanceled{Op: "serve.check.probe", Cause: ctx.Err()}
		}
	}

	if n > sortcheck.MaxZeroOneWires {
		return res, errf(http.StatusUnprocessableEntity,
			"the full 0-1 check handles at most %d wires (2^n inputs); the network has %d — submit probe inputs instead",
			sortcheck.MaxZeroOneWires, n)
	}
	key := "check:" + canonicalKey(c)
	if !req.NoCache {
		if body, ok := s.resp.get(key); ok {
			res.cache, res.body = "hit", body
			return res, nil
		}
		res.cache = "miss"
	}
	ok, witness, err := sortcheck.ZeroOneCtx(ctx, n, c, s.cfg.Workers)
	if err != nil {
		return res, err
	}
	resp := checkResponse{N: n, Depth: c.Depth(), Size: c.Size(), Sorts: &ok}
	if !ok {
		var mask uint64
		for i, v := range witness {
			mask |= uint64(v&1) << uint(i)
		}
		resp.Witness, resp.WitnessMask = witness, &mask
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return res, err
	}
	res.body = body
	if !req.NoCache {
		s.resp.put(key, body)
	}
	return res, nil
}

// halverResponse answers /v1/halver: Epsilon is the exact smallest ε
// such that the network is an ε-halver.
type halverResponse struct {
	N       int     `json:"n"`
	Depth   int     `json:"depth"`
	Size    int     `json:"size"`
	Epsilon float64 `json:"epsilon"`
}

func (s *Server) handleHalver(ctx context.Context, req *request) (handlerResult, error) {
	c, err := parseNetwork(req)
	if err != nil {
		return handlerResult{}, err
	}
	n := c.Wires()
	res := handlerResult{n: n}
	if n > halver.MaxEpsilonWires {
		return res, errf(http.StatusUnprocessableEntity,
			"ε is exhausted over 2^n inputs for at most %d wires; the network has %d", halver.MaxEpsilonWires, n)
	}
	if n%2 != 0 {
		return res, errf(http.StatusUnprocessableEntity, "ε-halving needs an even wire count; the network has %d", n)
	}
	key := "halver:" + canonicalKey(c)
	if !req.NoCache {
		if body, ok := s.resp.get(key); ok {
			res.cache, res.body = "hit", body
			return res, nil
		}
		res.cache = "miss"
	}
	eps, err := halver.EpsilonCtx(ctx, c, s.cfg.Workers)
	if err != nil {
		var ce *par.ErrCanceled
		if errors.As(err, &ce) {
			// The partial ε is a valid lower bound (it only grows as
			// more masks are seen), so it rides along in the 504 body.
			fields := ce.Fields()
			fields["epsilon_lower_bound"] = eps
			return res, &httpError{status: http.StatusGatewayTimeout, msg: err.Error(), partial: fields}
		}
		return res, err
	}
	body, err := json.Marshal(halverResponse{N: n, Depth: c.Depth(), Size: c.Size(), Epsilon: eps})
	if err != nil {
		return res, err
	}
	res.body = body
	if !req.NoCache {
		s.resp.put(key, body)
	}
	return res, nil
}

// adversaryResponse answers /v1/adversary. Certificate, when present,
// is the self-contained Corollary 4.1.1 witness in the same JSON
// schema cmd/adversary -save writes (verified against the submitted
// circuit before being returned); SortingRuledOut mirrors its
// presence.
type adversaryResponse struct {
	N               int                `json:"n"`
	Blocks          int                `json:"blocks"`
	L               int                `json:"l"`
	K               int                `json:"k"`
	DSize           int                `json:"d_size"`
	Reports         []core.BlockReport `json:"reports"`
	SortingRuledOut bool               `json:"sorting_ruled_out"`
	Certificate     json.RawMessage    `json:"certificate,omitempty"`
	Note            string             `json:"note,omitempty"`
}

// maxAdversaryWires caps /v1/adversary's width. The header alone
// declares it, so a body of a few bytes can ask for any n, and the
// adversary's work and certificate grow with n: 2^20 wires cost
// ~650 MB of allocation and a 22.9 MB certificate. 2^16 is the widest
// full one-block reverse delta network an 8 MiB body can carry, and
// the widest circuit any endpoint accepts.
const maxAdversaryWires = 1 << 16

func (s *Server) handleAdversary(ctx context.Context, req *request) (handlerResult, error) {
	c, err := parseNetwork(req)
	if err != nil {
		return handlerResult{}, err
	}
	n := c.Wires()
	res := handlerResult{n: n}
	if !bits.IsPow2(n) {
		return res, errf(http.StatusUnprocessableEntity,
			"the adversary needs a power-of-two wire count; the network has %d", n)
	}
	if n > maxAdversaryWires {
		return res, errf(http.StatusUnprocessableEntity,
			"the adversary handles at most %d wires; the network has %d", maxAdversaryWires, n)
	}
	if req.K < 0 || req.K > core.MaxK {
		return res, errf(http.StatusUnprocessableEntity,
			"k = %d is outside [0, %d] (0 selects the paper's k = lg n)", req.K, core.MaxK)
	}
	l := req.L
	if l <= 0 {
		l = bits.Lg(n)
	}
	key := fmt.Sprintf("adversary:%s:l=%d:k=%d", canonicalKey(c), l, req.K)
	if !req.NoCache {
		if body, ok := s.certs.get(key); ok {
			res.cache, res.body = "hit", body
			return res, nil
		}
		res.cache = "miss"
	}
	it, ok := delta.DecomposeIterated(c, l)
	if !ok {
		return res, errf(http.StatusUnprocessableEntity,
			"the circuit is not an iterated reverse delta network of block height %d; the paper's lower bound does not apply to it", l)
	}
	an, terr := core.Theorem41Ctx(ctx, it, req.K)
	if terr != nil {
		// No certificate from a canceled run: D is noncolliding only
		// for the prefix of the network actually processed.
		return res, terr
	}
	resp := adversaryResponse{
		N: n, Blocks: it.Blocks(), L: l, K: an.K,
		DSize: len(an.D), Reports: an.Reports,
	}
	cert, cerr := an.Certificate()
	switch {
	case cerr == nil:
		if verr := cert.Verify(c); verr != nil {
			return res, fmt.Errorf("derived certificate failed verification: %v", verr)
		}
		var cb bytes.Buffer
		if werr := cert.WriteJSON(&cb); werr != nil {
			return res, werr
		}
		resp.SortingRuledOut = true
		resp.Certificate = json.RawMessage(bytes.TrimSpace(cb.Bytes()))
	case errors.Is(cerr, core.ErrSetTooSmall):
		resp.Note = "surviving noncolliding set has fewer than two wires; the adversary cannot rule out that this network sorts"
	default:
		return res, cerr
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return res, err
	}
	res.body = body
	if !req.NoCache {
		s.certs.put(key, body)
	}
	return res, nil
}

// optimalResponse answers /v1/optimal: the exact largest noncolliding
// [M_0]-set any pattern admits on the circuit, with the witness
// pattern and set. The body is fully deterministic (the search result
// is byte-identical at any worker count and memo state; timing lives
// in the X-Served-In header), which is what makes the warm-vs-cold
// cache determinism testable.
type optimalResponse struct {
	N        int    `json:"n"`
	Depth    int    `json:"depth"`
	Size     int    `json:"size"`
	OptimalD int    `json:"optimal_d"`
	Pattern  string `json:"pattern"`
	Set      []int  `json:"set"`
}

// optimalSearch is the search /v1/optimal runs; a test swaps it to
// forge a result the witness check must refuse.
var optimalSearch = core.OptimalNoncollidingPacked

func (s *Server) handleOptimal(ctx context.Context, req *request) (handlerResult, error) {
	c, err := parseNetwork(req)
	if err != nil {
		return handlerResult{}, err
	}
	n := c.Wires()
	res := handlerResult{n: n}
	if n > core.MaxOptimalWires {
		return res, errf(http.StatusUnprocessableEntity,
			"the exact optimum search handles at most %d wires; the network has %d", core.MaxOptimalWires, n)
	}
	key := "optimal:" + canonicalKey(c)
	if !req.NoCache {
		if body, ok := s.resp.get(key); ok {
			res.cache, res.body = "hit", body
			return res, nil
		}
		res.cache = "miss"
	}
	// One process-wide memo serves every request: entries are keyed by
	// canonical residual state salted with the network's structure, so
	// repeat submissions of the same circuit (from any client) probe
	// warm, and different circuits cannot collide.
	packed, err := optimalSearch(ctx, c, core.OptimalOptions{
		Workers: s.cfg.Workers, Memo: s.memo,
	})
	if err != nil {
		return res, err
	}
	// The witness is checked against the circuit before it can be
	// cached: a cached body is replayed to every later client, and the
	// check costs one pattern simulation.
	if verr := core.VerifyOptimalWitness(c, packed); verr != nil {
		return res, fmt.Errorf("search result failed verification: %v", verr)
	}
	size, p, set := core.DecodeOptimalWitness(n, packed)
	body, err := json.Marshal(optimalResponse{
		N: n, Depth: c.Depth(), Size: c.Size(),
		OptimalD: size, Pattern: p.String(), Set: set,
	})
	if err != nil {
		return res, err
	}
	res.body = body
	if !req.NoCache {
		s.resp.put(key, body)
	}
	return res, nil
}
