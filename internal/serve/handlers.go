package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"shufflenet/internal/bits"
	"shufflenet/internal/core"
	"shufflenet/internal/delta"
	"shufflenet/internal/halver"
	"shufflenet/internal/network"
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

func (s *Server) handleCheck(ctx context.Context, req *request, c *network.Network) ([]byte, string, error) {
	n := c.Wires()
	if len(req.Inputs) > 0 {
		if n > 64 {
			return nil, "", errf(http.StatusUnprocessableEntity,
				"probe mode handles at most 64 wires (masks are 64-bit); the network has %d", n)
		}
		if n < 64 {
			for _, m := range req.Inputs {
				if m >= 1<<uint(n) {
					return nil, "", errf(http.StatusBadRequest,
						"input mask %d exceeds the %d-wire network's 2^%d masks", m, n, n)
				}
			}
		}
		return s.cached(req, "", func() (any, error) {
			select {
			case sorted := <-s.co.submit(canonicalKey(c), c.Compile(), req.Inputs):
				probes := make([]probeVerdict, len(sorted))
				for i, ok := range sorted {
					probes[i] = probeVerdict{Mask: req.Inputs[i], Sorted: ok}
				}
				return checkResponse{N: n, Depth: c.Depth(), Size: c.Size(), Probes: probes}, nil
			case <-ctx.Done():
				return nil, &par.ErrCanceled{Op: "serve.check.probe", Cause: ctx.Err()}
			}
		})
	}

	if n > sortcheck.MaxZeroOneWires {
		return nil, "", errf(http.StatusUnprocessableEntity,
			"the full 0-1 check handles at most %d wires (2^n inputs); the network has %d — submit probe inputs instead",
			sortcheck.MaxZeroOneWires, n)
	}
	return s.cached(req, "check:"+canonicalKey(c), func() (any, error) {
		ok, witness, err := sortcheck.ZeroOneCtx(ctx, n, c, s.cfg.Workers)
		if err != nil {
			return nil, err
		}
		resp := checkResponse{N: n, Depth: c.Depth(), Size: c.Size(), Sorts: &ok}
		if !ok {
			var mask uint64
			for i, v := range witness {
				mask |= uint64(v&1) << uint(i)
			}
			resp.Witness, resp.WitnessMask = witness, &mask
		}
		return resp, nil
	})
}

// halverResponse answers /v1/halver: Epsilon is the exact smallest ε
// such that the network is an ε-halver.
type halverResponse struct {
	N       int     `json:"n"`
	Depth   int     `json:"depth"`
	Size    int     `json:"size"`
	Epsilon float64 `json:"epsilon"`
}

func (s *Server) handleHalver(ctx context.Context, req *request, c *network.Network) ([]byte, string, error) {
	n := c.Wires()
	if n > halver.MaxEpsilonWires {
		return nil, "", errf(http.StatusUnprocessableEntity,
			"ε is exhausted over 2^n inputs for at most %d wires; the network has %d", halver.MaxEpsilonWires, n)
	}
	if n%2 != 0 {
		return nil, "", errf(http.StatusUnprocessableEntity, "ε-halving needs an even wire count; the network has %d", n)
	}
	return s.cached(req, "halver:"+canonicalKey(c), func() (any, error) {
		eps, err := halver.EpsilonCtx(ctx, c, s.cfg.Workers)
		if err != nil {
			var ce *par.ErrCanceled
			if errors.As(err, &ce) {
				// The partial ε is a valid lower bound (it only grows as
				// more masks are seen), so it rides along in the 504 body.
				fields := ce.Fields()
				fields["epsilon_lower_bound"] = eps
				return nil, &httpError{status: http.StatusGatewayTimeout, msg: err.Error(), partial: fields}
			}
			return nil, err
		}
		return halverResponse{N: n, Depth: c.Depth(), Size: c.Size(), Epsilon: eps}, nil
	})
}

// adversaryResponse answers /v1/adversary. Certificate, when present,
// is the self-contained Corollary 4.1.1 witness in the same JSON
// schema cmd/adversary -save writes, compact (verified against the
// submitted circuit before being returned); SortingRuledOut mirrors
// its presence.
type adversaryResponse struct {
	N               int                `json:"n"`
	Blocks          int                `json:"blocks"`
	L               int                `json:"l"`
	K               int                `json:"k"`
	DSize           int                `json:"d_size"`
	Reports         []core.BlockReport `json:"reports"`
	SortingRuledOut bool               `json:"sorting_ruled_out"`
	Certificate     *core.Certificate  `json:"certificate,omitempty"`
	Note            string             `json:"note,omitempty"`
}

// maxAdversaryWires caps /v1/adversary's width. The header alone
// declares it, so a body of a few bytes can ask for any n, and the
// adversary's work and certificate grow with n: 2^20 wires cost
// ~650 MB of allocation and a 22.9 MB certificate. 2^16 is the widest
// full one-block reverse delta network an 8 MiB body can carry, and
// the widest circuit any endpoint accepts.
const maxAdversaryWires = 1 << 16

func (s *Server) handleAdversary(ctx context.Context, req *request, c *network.Network) ([]byte, string, error) {
	n := c.Wires()
	if !bits.IsPow2(n) {
		return nil, "", errf(http.StatusUnprocessableEntity,
			"the adversary needs a power-of-two wire count; the network has %d", n)
	}
	if n > maxAdversaryWires {
		return nil, "", errf(http.StatusUnprocessableEntity,
			"the adversary handles at most %d wires; the network has %d", maxAdversaryWires, n)
	}
	if req.K < 0 || req.K > core.MaxK {
		return nil, "", errf(http.StatusUnprocessableEntity,
			"k = %d is outside [0, %d] (0 selects the paper's k = lg n)", req.K, core.MaxK)
	}
	l := req.L
	if l <= 0 {
		l = bits.Lg(n)
	}
	return s.cached(req, fmt.Sprintf("adversary:%s:l=%d:k=%d", canonicalKey(c), l, req.K), func() (any, error) {
		it, ok, err := delta.DecomposeIteratedCtx(ctx, c, l)
		if err != nil {
			return nil, err // the deadline cut the split search: 504
		}
		if !ok {
			return nil, errf(http.StatusUnprocessableEntity,
				"the circuit is not an iterated reverse delta network of block height %d; the paper's lower bound does not apply to it", l)
		}
		an, err := core.Theorem41Ctx(ctx, it, req.K)
		if err != nil {
			// No certificate from a canceled run: D is noncolliding only
			// for the prefix of the network actually processed.
			return nil, err
		}
		resp := adversaryResponse{
			N: n, Blocks: it.Blocks(), L: l, K: an.K,
			DSize: len(an.D), Reports: an.Reports,
		}
		cert, err := an.Certificate()
		switch {
		case err == nil:
			if verr := cert.Verify(c); verr != nil {
				return nil, fmt.Errorf("derived certificate failed verification: %v", verr)
			}
			resp.SortingRuledOut, resp.Certificate = true, cert
		case errors.Is(err, core.ErrSetTooSmall):
			resp.Note = "surviving noncolliding set has fewer than two wires; the adversary cannot rule out that this network sorts"
		default:
			return nil, err
		}
		return resp, nil
	})
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

func (s *Server) handleOptimal(ctx context.Context, req *request, c *network.Network) ([]byte, string, error) {
	n := c.Wires()
	if n > core.MaxOptimalWires {
		return nil, "", errf(http.StatusUnprocessableEntity,
			"the exact optimum search handles at most %d wires; the network has %d", core.MaxOptimalWires, n)
	}
	return s.cached(req, "optimal:"+canonicalKey(c), func() (any, error) {
		// One process-wide memo serves every request: entries are keyed
		// by canonical residual state salted with the network's
		// structure, so repeat submissions of the same circuit (from any
		// client) probe warm, and different circuits cannot collide.
		packed, err := optimalSearch(ctx, c, core.OptimalOptions{
			Workers: s.cfg.Workers, Memo: s.memo,
		})
		if err != nil {
			return nil, err
		}
		// The witness is checked against the circuit before it can be
		// cached: a cached body is replayed to every later client, and
		// the check costs one pattern simulation.
		if verr := core.VerifyOptimalWitness(c, packed); verr != nil {
			return nil, fmt.Errorf("search result failed verification: %v", verr)
		}
		size, p, set := core.DecodeOptimalWitness(n, packed)
		return optimalResponse{
			N: n, Depth: c.Depth(), Size: c.Size(),
			OptimalD: size, Pattern: p.String(), Set: set,
		}, nil
	})
}
