package coord

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"shufflenet/internal/core"
	"shufflenet/internal/network"
	"shufflenet/internal/obs"
)

// Defaults for the lease protocol. Eight prefixes per lease keeps the
// queue fine enough to balance uneven subtrees across a handful of
// workers (81/8 ≈ 10 chunks) without a round-trip per prefix; the TTL
// only has to beat the heartbeat of real progress, since an expired
// lease is re-issued lazily on the next request, never by a timer.
const (
	DefaultChunk    = 8
	DefaultLeaseTTL = 30 * time.Second
)

var (
	metLeases   = obs.C("coord.leases")
	metReports  = obs.C("coord.reports")
	metReleases = obs.C("coord.releases") // expired leases re-issued
)

// Options configures a Coordinator.
type Options struct {
	// Chunk is the number of frontier prefixes per lease (0 =
	// DefaultChunk).
	Chunk int
	// LeaseTTL is how long a lease may sit unreported before another
	// worker may claim it (0 = DefaultLeaseTTL). Expiry is lazy: a
	// lease is only re-issued when a worker asks and nothing else is
	// pending, so a slow-but-alive worker's duplicate report is
	// harmless (the merge is an idempotent max).
	LeaseTTL time.Duration
	// Frontier, when non-nil, resumes: its Done prefixes are never
	// leased and its Seed becomes the initial merged incumbent. The
	// caller must have checked Frontier.Net against the network.
	Frontier *Frontier
	// Writer, when non-nil, checkpoints each reported chunk as
	// PrefixDone records, so a killed coordinator resumes too.
	Writer *FrontierWriter
	// Progress, when non-nil, receives chunk-frontier completion.
	Progress *obs.Progress
}

type chunkState int

const (
	chunkPending chunkState = iota
	chunkLeased
	chunkDone
)

type chunk struct {
	start, end int   // prefix range [start, end)
	skip       []int // prefixes inside the range already done pre-resume
	state      chunkState
	lease      int // lease ID, valid when state == chunkLeased
	expiry     time.Time
	worker     string
}

// Coordinator owns one distributed optimum search: it serves the
// network to workers, leases frontier chunks, merges reported packed
// incumbents with max, re-leases chunks whose worker went quiet, and
// verifies the final witness against the network with the existing
// checker. All state is in memory; durability comes from the optional
// frontier Writer.
type Coordinator struct {
	net      *network.Network
	netText  string
	fp       string
	n        int
	prefixes int
	chunkSz  int
	ttl      time.Duration
	writer   *FrontierWriter

	mu        sync.Mutex
	chunks    []*chunk
	remaining int // chunks not yet done
	incumbent uint64
	nextLease int
	verified  bool
	finished  bool
	done      chan struct{}

	unregister func()
}

// New builds a coordinator for the network. Panics only where the
// search itself would (n over the wire cap).
func New(c *network.Network, opt Options) (*Coordinator, error) {
	var sb strings.Builder
	if err := c.WriteText(&sb); err != nil {
		return nil, err
	}
	co := &Coordinator{
		net:      c,
		netText:  sb.String(),
		fp:       core.NetworkFingerprint(c),
		n:        c.Wires(),
		prefixes: core.OptimalPrefixes(c.Wires()),
		chunkSz:  opt.Chunk,
		ttl:      opt.LeaseTTL,
		writer:   opt.Writer,
		done:     make(chan struct{}),
	}
	if co.chunkSz <= 0 {
		co.chunkSz = DefaultChunk
	}
	if co.ttl <= 0 {
		co.ttl = DefaultLeaseTTL
	}
	var fr *Frontier
	if opt.Frontier != nil {
		fr = opt.Frontier
		if fr.Net != co.fp {
			return nil, fmt.Errorf("coord: frontier fingerprint %s does not match network %s", fr.Net, co.fp)
		}
		if fr.Prefixes != co.prefixes {
			return nil, fmt.Errorf("coord: frontier width %d does not match network's %d", fr.Prefixes, co.prefixes)
		}
		co.incumbent = fr.Seed
	}
	for s := 0; s < co.prefixes; s += co.chunkSz {
		e := s + co.chunkSz
		if e > co.prefixes {
			e = co.prefixes
		}
		ch := &chunk{start: s, end: e}
		covered := 0
		for p := s; p < e; p++ {
			if fr.Skip(p) {
				ch.skip = append(ch.skip, p)
				covered++
			}
		}
		if covered == e-s {
			ch.state = chunkDone // fully inherited from the frontier
		} else {
			co.remaining++
		}
		co.chunks = append(co.chunks, ch)
	}
	if co.remaining == 0 {
		co.finish()
	}
	if opt.Progress != nil {
		total := len(co.chunks)
		co.unregister = opt.Progress.Register(func(s *obs.Sample) {
			co.mu.Lock()
			dn := total - co.remaining
			inc := co.incumbent
			co.mu.Unlock()
			s.Field("coord.chunks_done", int64(dn))
			s.Field("coord.chunks_total", int64(total))
			s.SetFraction(float64(dn), float64(total))
			s.Field("coord.incumbent", int64(inc>>(2*uint(co.n))))
		})
	}
	return co, nil
}

// finish is called with mu held (or before any worker can race) once
// remaining hits zero: verify the merged witness and release waiters.
func (co *Coordinator) finish() {
	if co.finished {
		return
	}
	co.finished = true
	co.verified = core.VerifyOptimalWitness(co.net, co.incumbent) == nil
	close(co.done)
}

// Close unregisters the progress source. It does not abort workers.
func (co *Coordinator) Close() {
	if co.unregister != nil {
		co.unregister()
		co.unregister = nil
	}
}

// Result reports the merged packed incumbent and whether the whole
// frontier is accounted for (at which point the value is final and
// verified — see Verified).
func (co *Coordinator) Result() (packed uint64, done bool) {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.incumbent, co.finished
}

// Verified reports whether the final witness decoded and re-checked
// against the network (meaningful only once done).
func (co *Coordinator) Verified() bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.verified
}

// Wait blocks until every chunk is reported (or ctx ends) and returns
// the final packed incumbent.
func (co *Coordinator) Wait(ctx context.Context) (uint64, error) {
	select {
	case <-co.done:
		packed, _ := co.Result()
		return packed, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// Protocol bodies. Packed incumbents ride as JSON numbers: Go's
// encoder emits full-precision integers and the workers are Go, so no
// 2^53 truncation occurs on this path (journals use the same
// representation).
type netInfo struct {
	N           int    `json:"n"`
	Prefixes    int    `json:"prefixes"`
	Fingerprint string `json:"fingerprint"`
	NetText     string `json:"net_text"`
}

type leaseReq struct {
	Worker string `json:"worker"`
}

type leaseResp struct {
	Done  bool   `json:"done,omitempty"`  // frontier complete; stop
	Wait  bool   `json:"wait,omitempty"`  // everything leased; poll again
	Lease int    `json:"lease,omitempty"` // lease ID to echo in the report
	Start int    `json:"start"`
	End   int    `json:"end"`
	Skip  []int  `json:"skip,omitempty"`
	Seed  uint64 `json:"seed"`
	// Packed carries the final result when Done.
	Packed uint64 `json:"packed,omitempty"`
}

type reportReq struct {
	Worker      string `json:"worker"`
	Lease       int    `json:"lease"`
	Start       int    `json:"start"`
	End         int    `json:"end"`
	Packed      uint64 `json:"packed"`
	Fingerprint string `json:"fingerprint"`
}

type resultResp struct {
	Done     bool   `json:"done"`
	Packed   uint64 `json:"packed"`
	Size     int    `json:"size"`
	Pattern  string `json:"pattern,omitempty"`
	Set      []int  `json:"set,omitempty"`
	Verified bool   `json:"verified"`
}

// Handler serves the coordinator protocol:
//
//	GET  /v1/net     the network (text format), fingerprint, frontier width
//	POST /v1/lease   claim a chunk of the frontier
//	POST /v1/report  deliver a chunk's packed result
//	GET  /v1/result  the merged (possibly partial) result
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/net", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, netInfo{N: co.n, Prefixes: co.prefixes, Fingerprint: co.fp, NetText: co.netText})
	})
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseReq
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, co.lease(req.Worker))
	})
	mux.HandleFunc("POST /v1/report", func(w http.ResponseWriter, r *http.Request) {
		var req reportReq
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := co.report(req); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("GET /v1/result", func(w http.ResponseWriter, r *http.Request) {
		packed, done := co.Result()
		resp := resultResp{Done: done, Packed: packed}
		if done {
			size, p, set := core.DecodeOptimalWitness(co.n, packed)
			resp.Size, resp.Pattern, resp.Set = size, p.String(), set
			resp.Verified = co.Verified()
		}
		writeJSON(w, resp)
	})
	return mux
}

func (co *Coordinator) lease(worker string) leaseResp {
	now := time.Now()
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.finished {
		return leaseResp{Done: true, Packed: co.incumbent}
	}
	var pick *chunk
	for _, ch := range co.chunks {
		if ch.state == chunkPending {
			pick = ch
			break
		}
	}
	if pick == nil {
		// Straggler recovery: nothing pending, so re-issue the first
		// expired lease. The original worker may still finish and
		// report — duplicate reports merge idempotently.
		for _, ch := range co.chunks {
			if ch.state == chunkLeased && now.After(ch.expiry) {
				pick = ch
				metReleases.Add(1)
				break
			}
		}
	}
	if pick == nil {
		return leaseResp{Wait: true}
	}
	co.nextLease++
	pick.state = chunkLeased
	pick.lease = co.nextLease
	pick.expiry = now.Add(co.ttl)
	pick.worker = worker
	metLeases.Add(1)
	return leaseResp{
		Lease: pick.lease,
		Start: pick.start, End: pick.end,
		Skip: append([]int(nil), pick.skip...),
		Seed: co.incumbent,
	}
}

func (co *Coordinator) report(req reportReq) error {
	if req.Fingerprint != "" && req.Fingerprint != co.fp {
		return fmt.Errorf("report for network %s, serving %s", req.Fingerprint, co.fp)
	}
	// A chunk whose prefixes all collide in their own digits reports 0;
	// anything else must be a witness, or the merge would adopt it.
	if req.Packed != 0 {
		if err := core.VerifyOptimalWitness(co.net, req.Packed); err != nil {
			return fmt.Errorf("report for chunk [%d, %d): %v", req.Start, req.End, err)
		}
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	var ch *chunk
	for _, c := range co.chunks {
		if c.start == req.Start && c.end == req.End {
			ch = c
			break
		}
	}
	if ch == nil {
		return fmt.Errorf("report for unknown chunk [%d, %d)", req.Start, req.End)
	}
	metReports.Add(1)
	if req.Packed > co.incumbent {
		co.incumbent = req.Packed
	}
	if ch.state == chunkDone {
		return nil // duplicate from a re-leased straggler; already merged
	}
	ch.state = chunkDone
	co.remaining--
	if w := co.writer; w != nil {
		// Checkpoint: the merged incumbent now dominates every prefix
		// of this chunk's subtrees, so each is individually resumable.
		for p := ch.start; p < ch.end; p++ {
			if err := w.PrefixDone(p, co.incumbent); err != nil {
				return err
			}
		}
	}
	if co.remaining == 0 {
		co.finish()
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
