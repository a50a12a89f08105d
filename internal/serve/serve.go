// Package serve implements the adversary-as-a-service HTTP/JSON API
// behind cmd/shufflenetd: clients submit a comparator network (text,
// DOT, or register serialization — the same fuzz-tested parsers the
// CLIs use) and query sortability verdicts, halver quality, the
// paper's Lemma 4.1 / Theorem 4.1 adversary certificate, or the exact
// noncolliding optimum.
//
// Endpoints (all POST, JSON in/out, plus GET /healthz):
//
//	/v1/check      0-1 sortability verdict with witness; with "inputs",
//	               per-mask probe verdicts coalesced onto shared SWAR words
//	/v1/halver     exact ε of the network as an ε-halver
//	/v1/adversary  Theorem 4.1 run + verified non-sortability certificate
//	/v1/optimal    exact optimal noncolliding [M_0]-set (branch and bound)
//
// Server-wide behavior: an admission semaphore bounds in-flight
// requests (overload answers 429 immediately, it does not queue);
// every request runs under a deadline (client-chosen via timeout_ms,
// clamped to a server maximum) and a deadline expiry answers 504 with
// the engine's partial progress as the error body — the same
// *par.ErrCanceled fields the CLIs journal; /v1/optimal requests share
// one process-wide transposition table (memo keys are salted by
// network structure, so identical circuits submitted by different
// clients warm each other); verdict/certificate bodies are cached
// content-addressed by canonical network hash, and a cache hit replays
// the byte-identical body of the miss that filled it.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
	"unicode"

	"shufflenet/internal/core"
	"shufflenet/internal/network"
	"shufflenet/internal/obs"
	"shufflenet/internal/par"
	"shufflenet/internal/perm"
)

// Config sizes the server. Zero values select the documented defaults.
type Config struct {
	// Workers caps each request's engine parallelism (0 = GOMAXPROCS).
	Workers int
	// MaxInFlight bounds concurrently served requests; requests beyond
	// it are answered 429 without queueing (default 64).
	MaxInFlight int
	// DefaultTimeout is the per-request deadline when the body carries
	// no timeout_ms (default 30s). MaxTimeout clamps client-requested
	// deadlines (default 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MemoBytes sizes the process-wide transposition table shared by
	// /v1/optimal requests (default 64 MiB; core.NewMemo clamps
	// degenerate values).
	MemoBytes int64
	// CacheEntries bounds the response cache, which every endpoint
	// shares (default 256 bodies; it also holds at most cacheBytes).
	CacheEntries int
	// CoalesceWindow is how long a /v1/check probe waits for other
	// probes of the same network to share its SWAR words (default 2ms;
	// a group flushes early once coalesceLanes lanes are pending).
	CoalesceWindow time.Duration
	// Journal, when non-nil, receives one RequestRecord per request
	// (endpoint, status, latency, cache state, partial-progress fields
	// on timeouts).
	Journal *obs.Journal
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 2 * time.Minute
	}
	if c.MemoBytes == 0 {
		c.MemoBytes = 64 << 20
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.CoalesceWindow <= 0 {
		c.CoalesceWindow = 2 * time.Millisecond
	}
	return c
}

// maxBodyBytes bounds request bodies.
const maxBodyBytes = 8 << 20

// Server is the daemon's request-handling core. It is self-contained
// and mountable under httptest for end-to-end tests.
type Server struct {
	cfg   Config
	sem   chan struct{}
	memo  *core.Memo
	co    *coalescer
	cache *respCache // every endpoint's bodies, keys prefixed by endpoint
}

// New builds a Server from cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.MaxInFlight),
		memo:  core.NewMemo(cfg.MemoBytes),
		co:    newCoalescer(cfg.CoalesceWindow),
		cache: newRespCache(cfg.CacheEntries, cacheBytes),
	}
}

// MemoStats exposes the shared transposition table's counters (for the
// daemon's shutdown journal entry).
func (s *Server) MemoStats() core.MemoStats { return s.memo.Stats() }

// Handler returns the server's mux: the /v1 endpoints, /healthz, and
// the debug surface (/debug/progress, /debug/vars) mounted on the
// server's own mux — nothing touches http.DefaultServeMux, so the
// daemon coexists with a -pprof debug listener in one process.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/check", s.endpoint("check", s.handleCheck))
	mux.Handle("/v1/halver", s.endpoint("halver", s.handleHalver))
	mux.Handle("/v1/adversary", s.endpoint("adversary", s.handleAdversary))
	mux.Handle("/v1/optimal", s.endpoint("optimal", s.handleOptimal))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"ok":true}`)
	})
	mux.Handle("/debug/progress", obs.ProgressHandler())
	obs.Default.Expvar("shufflenet") // Once-guarded; /debug/vars then carries the registry
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// request is the shared JSON envelope of the /v1 endpoints.
type request struct {
	// Network is the serialized network; Format selects the parser:
	// "text" (default, network.ReadText), "dot" (network.ReadDOT), or
	// "register" (network.ReadRegisterText; the register machine is
	// converted to its equivalent circuit with the final register
	// placement folded into the wire labels, so sortedness verdicts are
	// about the register machine's output order).
	Network string `json:"network"`
	Format  string `json:"format,omitempty"`
	// Inputs, on /v1/check, switches to probe mode: each entry is a 0-1
	// input mask (bit w = wire w) evaluated on the SWAR kernel, batched
	// with concurrent probes of the same network.
	Inputs []uint64 `json:"inputs,omitempty"`
	// L and K parameterize /v1/adversary: block height for the RDN
	// decomposition and the averaging parameter (0 = the paper's lg n).
	L int `json:"l,omitempty"`
	K int `json:"k,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline
	// (clamped to the server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// NoCache skips the response cache for this request (the shared
	// memo still applies — this is how warm-memo latency is measured
	// apart from body replay).
	NoCache bool `json:"nocache,omitempty"`
}

// httpError carries a status and an optional partial-progress map to
// the error writer.
type httpError struct {
	status  int
	msg     string
	partial map[string]any
}

func (e *httpError) Error() string { return e.msg }

func errf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// errorBody is the JSON error envelope. Partial carries the
// *par.ErrCanceled fields of a deadline-exceeded request — the same
// schema the CLIs journal — plus any endpoint-specific
// partial-result fields (e.g. the halver's ε lower bound).
type errorBody struct {
	Error   string         `json:"error"`
	Partial map[string]any `json:"partial,omitempty"`
}

// epMetrics is one endpoint's name and counters.
type epMetrics struct {
	name       string
	reqs, errs *obs.Counter
	latUS      *obs.Histogram
}

func newEPMetrics(name string) epMetrics {
	return epMetrics{
		name:  name,
		reqs:  obs.C("serve." + name + ".requests"),
		errs:  obs.C("serve." + name + ".errors"),
		latUS: obs.H("serve."+name+".latency_us", obs.Pow2Bounds(30)),
	}
}

var (
	epMet = map[string]epMetrics{
		"check":     newEPMetrics("check"),
		"halver":    newEPMetrics("halver"),
		"adversary": newEPMetrics("adversary"),
		"optimal":   newEPMetrics("optimal"),
	}
	metInflight  = obs.G("serve.inflight")
	metThrottled = obs.C("serve.throttled")
	metDeadline  = obs.C("serve.deadline_exceeded")
)

// RecRequest is the type tag of RequestRecord.
const RecRequest = "request"

// RequestRecord is the per-request journal line. Deliberately much
// lighter than obs.Entry (which shells out to git and snapshots the
// registry): a daemon writes one of these per request, so it must cost
// one Marshal and one write. The journal stamps it with the daemon's
// run, command and the time.
type RequestRecord struct {
	obs.Header
	Endpoint string         `json:"endpoint"`
	Status   int            `json:"status"`
	MS       float64        `json:"ms"`
	N        int            `json:"n,omitempty"`
	Cache    string         `json:"cache,omitempty"`
	Error    string         `json:"error,omitempty"`
	Partial  map[string]any `json:"partial,omitempty"`
}

// handlerFunc is one endpoint's part of the pipeline: given the parsed
// network, it checks the endpoint's caps and answers through
// Server.cached with the endpoint's cache key and engine call.
type handlerFunc func(ctx context.Context, req *request, c *network.Network) (body []byte, cache string, err error)

// endpoint wraps a handler with the shared pipeline: method check,
// admission control, body limit + decode, per-request deadline, parse,
// error mapping, metrics, and the journal record.
func (s *Server) endpoint(name string, fn handlerFunc) http.Handler {
	ep := epMet[name]
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep.reqs.Inc()
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			s.fail(w, ep, time.Now(), 0, errf(http.StatusMethodNotAllowed, "use POST"))
			return
		}
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		default:
			metThrottled.Inc()
			s.fail(w, ep, time.Now(), 0, errf(http.StatusTooManyRequests,
				"server at capacity (%d in-flight requests); retry later", s.cfg.MaxInFlight))
			return
		}
		metInflight.Add(1)
		defer metInflight.Add(-1)
		start := time.Now()

		var req request
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.fail(w, ep, start, 0, errf(http.StatusBadRequest, "bad request body: %v", err))
			return
		}

		d := s.cfg.DefaultTimeout
		if req.TimeoutMS > 0 {
			d = time.Duration(req.TimeoutMS) * time.Millisecond
			if d > s.cfg.MaxTimeout {
				d = s.cfg.MaxTimeout
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()

		body, n, cache, err := s.call(ctx, fn, &req)
		if err != nil {
			s.fail(w, ep, start, n, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if cache != "" {
			w.Header().Set("X-Cache", cache)
		}
		w.Header().Set("X-Served-In", time.Since(start).String())
		w.Write(body)
		s.record(ep, start, http.StatusOK, n, cache, errorBody{})
	})
}

// call parses the request's network and runs the handler on it, with a
// panic guard: a parser or handler bug answers 500 instead of killing
// the daemon's connection (the engines' width caps are all pre-checked,
// so a panic here is a genuine bug, and the journal line preserves its
// trace head). n is the network's width, for the journal.
func (s *Server) call(ctx context.Context, fn handlerFunc, req *request) (body []byte, n int, cache string, err error) {
	defer func() {
		if p := recover(); p != nil {
			trace := string(debug.Stack())
			if i := strings.IndexByte(trace, '\n'); i > 0 {
				trace = trace[:i]
			}
			err = errf(http.StatusInternalServerError, "internal error: %v (%s)", p, trace)
		}
	}()
	c, err := parseNetwork(req)
	if err != nil {
		return nil, 0, "", err
	}
	n = c.Wires()
	body, cache, err = fn(ctx, req, c)
	return body, n, cache, err
}

// cached answers a request from the response cache, or runs compute
// and marshals what it returns. It is the only code that reads or
// writes the cache and the only marshal of a success body, so a hit
// replays the byte-identical body of the miss that filled it. An empty
// key (probe mode) or a nocache request bypasses the cache: cache is
// then "", else "hit" or "miss". A failed computation is not cached.
func (s *Server) cached(req *request, key string, compute func() (any, error)) (body []byte, cache string, err error) {
	if key != "" && !req.NoCache {
		if hit, ok := s.cache.get(key); ok {
			return hit, "hit", nil
		}
		cache = "miss"
	}
	v, err := compute()
	if err != nil {
		return nil, cache, err
	}
	if body, err = json.Marshal(v); err != nil {
		return nil, cache, err
	}
	if cache != "" {
		s.cache.put(key, body)
	}
	return body, cache, nil
}

// fail maps an error to its HTTP response and journal record.
// *par.ErrCanceled from an expired request deadline becomes 504 with
// the partial-progress fields as the error body.
func (s *Server) fail(w http.ResponseWriter, ep epMetrics, start time.Time, n int, err error) {
	ep.errs.Inc()
	status := http.StatusInternalServerError
	body := errorBody{Error: err.Error()}
	var he *httpError
	var ce *par.ErrCanceled
	switch {
	case errors.As(err, &he):
		status = he.status
		body.Partial = he.partial
	case errors.As(err, &ce):
		status = http.StatusGatewayTimeout
		metDeadline.Inc()
		body.Partial = ce.Fields()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
	s.record(ep, start, status, n, "", body)
}

// record observes a request's latency and, with a journal attached,
// writes its line. The record is built only inside that branch: built
// outside it, it would be allocated on every request.
func (s *Server) record(ep epMetrics, start time.Time, status, n int, cache string, eb errorBody) {
	took := time.Since(start)
	ep.latUS.Observe(took.Microseconds())
	if j := s.cfg.Journal; j != nil {
		_ = j.Write(&RequestRecord{ // a failing journal must not fail the request it records
			Header:   obs.Header{Type: RecRequest},
			Endpoint: ep.name, Status: status,
			MS: float64(took) / float64(time.Millisecond),
			N:  n, Cache: cache, Error: eb.Error, Partial: eb.Partial,
		})
	}
}

// parseNetwork decodes the request's network with the parser its
// format selects.
func parseNetwork(req *request) (*network.Network, error) {
	if strings.TrimSpace(req.Network) == "" {
		return nil, errf(http.StatusBadRequest, "missing network")
	}
	rd := strings.NewReader(req.Network)
	switch req.Format {
	case "", "text":
		c, err := network.ReadText(rd)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "parse (text): %v", err)
		}
		return c, nil
	case "dot":
		c, err := network.ReadDOT(rd)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "parse (dot): %v", err)
		}
		return c, nil
	case "register":
		// Converting the register machine to a circuit walks every
		// register at every step, and the header alone declares the
		// count: refuse by the body's shape before parsing what no
		// endpoint accepts or what costs more than the body is worth.
		n, steps := registerShape(req.Network)
		if n > maxAdversaryWires {
			return nil, errf(http.StatusUnprocessableEntity,
				"%d registers is wider than any endpoint accepts (at most %d)", n, maxAdversaryWires)
		}
		if budget := registerStepsPerByte * int64(len(req.Network)); int64(n)*int64(steps) > budget {
			return nil, errf(http.StatusUnprocessableEntity,
				"%d registers × %d steps exceeds the %d register-steps a %d-byte body may declare (%d per byte)",
				n, steps, budget, len(req.Network), registerStepsPerByte)
		}
		reg, err := network.ReadRegisterText(rd)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "parse (register): %v", err)
		}
		circ, place := network.FromRegister(reg)
		return relabel(circ, place.Inverse()), nil
	default:
		return nil, errf(http.StatusBadRequest, "unknown format %q (want text, dot, or register)", req.Format)
	}
}

// registerStepsPerByte bounds a register body's work by its size:
// registers × steps may not exceed 64 per body byte. A step whose ops
// are written out spends n/2 bytes on n registers, so every such body
// is 32 times under the budget (a one-block reverse delta network on
// 2^16 registers, about 512 KiB, uses 2 per byte); only steps whose
// ops are "." with a named permutation are cheaper, and those stay
// below about 1,200 registers.
const registerStepsPerByte = 64

// registerShape reads a register body's declared count (the first
// "registers" line) and counts its "step" lines without parsing either
// and without allocating. A count that does not parse reads as 0: the
// parser reports it.
func registerShape(body string) (registers, steps int) {
	seen := false
	for body != "" {
		line := body
		if i := strings.IndexAny(body, "\r\n"); i >= 0 {
			line, body = body[:i], body[i+1:]
		} else {
			body = ""
		}
		line = strings.TrimSpace(line)
		word, rest := line, ""
		if i := strings.IndexFunc(line, unicode.IsSpace); i >= 0 {
			word, rest = line[:i], strings.TrimSpace(line[i:])
		}
		switch word {
		case "registers":
			if !seen {
				seen = true
				registers, _ = strconv.Atoi(rest)
			}
		case "step":
			steps++
		}
	}
	return registers, steps
}

// relabel renames circuit wires by q. Used to fold a register
// machine's final placement into the circuit: reg.Eval(x)[r] ==
// circ.Eval(x)[place[r]], so relabeling every wire w to place⁻¹[w]
// yields a circuit that is a sorting network iff the register machine
// leaves its registers sorted in order.
func relabel(c *network.Network, q perm.Perm) *network.Network {
	if q.IsIdentity() {
		return c
	}
	out := network.New(c.Wires())
	for _, lv := range c.Levels() {
		nl := make(network.Level, len(lv))
		for i, cm := range lv {
			nl[i] = network.Comparator{Min: q[cm.Min], Max: q[cm.Max]}
		}
		out.AddLevel(nl)
	}
	return out
}
