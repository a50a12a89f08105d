package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"shufflenet/internal/bits"
	"shufflenet/internal/delta"
	"shufflenet/internal/halver"
	"shufflenet/internal/netbuild"
	"shufflenet/internal/network"
	"shufflenet/internal/obs"
	"shufflenet/internal/perm"
	"shufflenet/internal/randnet"
	"shufflenet/internal/serve"
)

// Request kinds, in the order of cmd/loadgen's -mix flag.
const (
	kCheck = iota
	kProbe
	kHalver
	kOptimal
	kAdversary
	numKinds
)

var (
	kindName = [numKinds]string{"check", "probe", "halver", "optimal", "adversary"}
	kindPath = [numKinds]string{"/v1/check", "/v1/check", "/v1/halver", "/v1/optimal", "/v1/adversary"}
)

// request is one prepared HTTP request: the circuit in text form (the
// checks re-parse it, as the server does) and the marshaled body.
type request struct {
	kind  int
	text  string
	masks []uint64 // probe inputs
	body  []byte
}

func newRequest(kind int, text string, masks []uint64, nocache bool) *request {
	body, err := json.Marshal(struct {
		Network string   `json:"network"`
		Inputs  []uint64 `json:"inputs,omitempty"`
		NoCache bool     `json:"nocache,omitempty"`
	}{text, masks, nocache})
	if err != nil {
		panic(err) // a string, integers and a bool always marshal
	}
	return &request{kind: kind, text: text, masks: masks, body: body}
}

func render(c *network.Network) string {
	var sb strings.Builder
	_ = c.WriteText(&sb) // a strings.Builder never fails a write
	return sb.String()
}

// serveSpec is one serve workload: a request mix, the generator that
// draws the request at position seq of a client's seeded stream, and
// the fixed list each round sends through a freshly mounted server
// twice (cold_s, then warm_s).
type serveSpec struct {
	// kinds is the mix expanded by weight; each client cycles through
	// it, so every run and seed sends the same proportions and only the
	// circuits vary.
	kinds []int
	gen   func(kind, seq int, rng *rand.Rand) *request
	batch func(rng *rand.Rand) []*request
}

// expand lists each kind weight times, interleaved.
func expand(weights [numKinds]int) []int {
	var out []int
	for left := true; left; {
		left = false
		for k, w := range weights {
			if w > 0 {
				out = append(out, k)
				weights[k]--
				left = left || weights[k] > 0
			}
		}
	}
	return out
}

// repeatSpec is loadgen's historical mix (check=2, probe=8, halver=1,
// optimal=2, adversary=1; n = 16, optimal at n = 10) over a small
// seeded pool of 8 circuits per family: after the first request for a
// circuit, replies replay from the content-addressed cache, and probes
// of one circuit coalesce onto shared SWAR words.
func repeatSpec(seed int64) serveSpec {
	const n, optN, poolSize, probes = 16, 10, 8, 4
	rng := rand.New(rand.NewSource(seed))
	bitonic := netbuild.Bitonic(n)
	var pool [numKinds][]*request
	for i := 0; i < poolSize; i++ {
		pool[kCheck] = append(pool[kCheck], newRequest(kCheck, render(sorter(n, bitonic, rng)), nil, false))
		pool[kHalver] = append(pool[kHalver], newRequest(kHalver, render(halver.CrossMatchings(n, 2, rng)), nil, false))
		pool[kOptimal] = append(pool[kOptimal], newRequest(kOptimal, render(randnet.Levels(optN, 4, rng)), nil, false))
		pool[kAdversary] = append(pool[kAdversary], newRequest(kAdversary, render(iteratedRDN(n, 1, rng)), nil, false))
	}
	var cached []*request
	for k := range pool {
		cached = append(cached, pool[k]...)
	}
	spec := serveSpec{kinds: expand([numKinds]int{kCheck: 2, kProbe: 8, kHalver: 1, kOptimal: 2, kAdversary: 1})}
	spec.gen = func(k, _ int, rng *rand.Rand) *request {
		i := rng.Intn(poolSize)
		if k != kProbe {
			return pool[k][i]
		}
		masks := make([]uint64, probes)
		for j := range masks {
			masks[j] = rng.Uint64() & (1<<n - 1)
		}
		return newRequest(kProbe, pool[kCheck][i].text, masks, false)
	}
	spec.batch = func(*rand.Rand) []*request { return cached }
	return spec
}

// freshSpec sends, on every request, a circuit drawn fresh from the
// stream with nocache set, sized so the engine call dominates the
// request: a 20-wire sorter check (the checks of every fourth cycle of
// the mix broken by one dropped comparator, so a broken circuit's
// early exit costs every seed the same), an 18-wire halver, a 10-wire
// dense random optimum, and a 64-wire two-block iterated RDN for the
// adversary.
// Probes are left out: a fresh circuit never shares a SWAR word, so a
// probe would time only the coalescing window.
func freshSpec() serveSpec {
	merge := netbuild.MergeExchange(20)
	spec := serveSpec{kinds: expand([numKinds]int{kCheck: 2, kHalver: 2, kOptimal: 1, kAdversary: 1})}
	spec.gen = func(k, seq int, rng *rand.Rand) *request {
		var c *network.Network
		switch k {
		case kCheck:
			c = sorter(20, merge, rng)
			if seq/len(spec.kinds)%4 == 0 {
				c = dropComparator(c, rng)
			}
		case kHalver:
			c = halver.CrossMatchings(18, 4, rng)
		case kOptimal:
			c = randnet.Levels(10, 6, rng)
		default:
			c = iteratedRDN(64, 2, rng)
		}
		return newRequest(k, render(c), nil, true)
	}
	spec.batch = func(rng *rand.Rand) []*request {
		b := make([]*request, 8*len(spec.kinds))
		for i := range b {
			b[i] = spec.gen(spec.kinds[i%len(spec.kinds)], i, rng)
		}
		return b
	}
	return spec
}

// sorter prefixes the sorting network s with one random level, so every
// draw is a distinct circuit that still sorts.
func sorter(n int, s *network.Network, rng *rand.Rand) *network.Network {
	return randnet.Levels(n, 1, rng).Append(s)
}

// dropComparator removes one random comparator after the first level.
func dropComparator(c *network.Network, rng *rand.Rand) *network.Network {
	drop := 1 + rng.Intn(c.Depth()-1)
	out := network.New(c.Wires())
	for i, lv := range c.Levels() {
		if i == drop && len(lv) > 0 {
			j := rng.Intn(len(lv))
			lv = append(append(network.Level{}, lv[:j]...), lv[j+1:]...)
		}
		out.AddLevel(lv)
	}
	return out
}

// iteratedRDN flattens a random full reverse delta network per block,
// each behind a random permutation, into a circuit on n = 2^d wires.
func iteratedRDN(n, blocks int, rng *rand.Rand) *network.Network {
	it := delta.NewIterated(n)
	for b := 0; b < blocks; b++ {
		it.AddBlock(perm.Random(n, rng), delta.Random(bits.Lg(n), 1, rng))
	}
	c, _ := it.ToNetwork()
	return c
}

// daemonConfig is serve.Config as cmd/shufflenetd's flags default it.
func daemonConfig() serve.Config {
	inflight := 2 * runtime.GOMAXPROCS(0)
	if inflight < 8 {
		inflight = 8
	}
	return serve.Config{
		MaxInFlight:    inflight,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     2 * time.Minute,
		MemoBytes:      64 << 20,
		CacheEntries:   256,
		CoalesceWindow: 2 * time.Millisecond,
	}
}

// sample is one completed round trip.
type sample struct {
	id      int64
	req     *request
	start   time.Time
	lat     time.Duration // client round trip
	handler time.Duration // X-Served-In
	status  int           // 0 when the transport failed
	cache   string        // X-Cache
	body    []byte
}

// client holds one keep-alive connection to the server.
type client struct {
	hc   *http.Client
	base string
}

func (c *client) do(r *request) sample {
	s := sample{req: r, start: time.Now()}
	resp, err := c.hc.Post(c.base+kindPath[r.kind], "application/json", bytes.NewReader(r.body))
	if err != nil {
		s.lat = time.Since(s.start)
		s.body = []byte(err.Error())
		return s
	}
	s.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	s.lat = time.Since(s.start)
	if err != nil {
		s.body = []byte(err.Error())
		return s
	}
	s.status = resp.StatusCode
	s.cache = resp.Header.Get("X-Cache")
	s.handler, _ = time.ParseDuration(resp.Header.Get("X-Served-In"))
	return s
}

// server is the real handler stack, serve.New(cfg).Handler(), on an
// ephemeral loopback listener in this process, with one client per
// load thread.
type server struct {
	hs      *http.Server
	done    chan error
	clients []*client
	ids     *atomic.Int64 // request ids, shared by every server of a run
}

func startServer(clients int, ids *atomic.Int64) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		hs:   &http.Server{Handler: serve.New(daemonConfig()).Handler()},
		done: make(chan error, 1),
		ids:  ids,
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for i := 0; i < clients; i++ {
		tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
		c := &client{hc: &http.Client{Transport: tr, Timeout: 3 * time.Minute}, base: base}
		s.clients = append(s.clients, c)
		// The first round trip opens the client's connection.
		resp, err := c.hc.Get(base + "/healthz")
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("/healthz answered %d", resp.StatusCode)
			}
		}
		if err != nil {
			s.stop()
			return nil, err
		}
	}
	return s, nil
}

// stop closes the connections, shuts the server down and waits for
// its serve loop to return.
func (s *server) stop() {
	for _, c := range s.clients {
		c.hc.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		s.hs.Close()
	}
	<-s.done
}

// load runs the clients as a closed loop: each sends its next request
// only when its previous reply is in. next returns nil when client i is
// done; after, when set, runs after each round trip, outside its
// timing (the traced run's replays). It returns the samples and the
// wall time.
func (s *server) load(next func(i int) *request, after func(*sample)) ([]sample, time.Duration) {
	per := make([][]sample, len(s.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := next(i); r != nil; r = next(i) {
				sm := c.do(r)
				sm.id = s.ids.Add(1)
				if after != nil {
					after(&sm)
				}
				per[i] = append(per[i], sm)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	return out, elapsed
}

// pass sends every request of reqs once, shared among the clients;
// after is as for load.
func (s *server) pass(reqs []*request, after func(*sample)) ([]sample, time.Duration) {
	var next atomic.Int64
	return s.load(func(int) *request {
		if j := next.Add(1) - 1; j < int64(len(reqs)) {
			return reqs[j]
		}
		return nil
	}, after)
}

// stream is each client's own seeded request stream, cycling through
// the mix.
type stream struct {
	spec serveSpec
	rngs []*rand.Rand
	sent []int
}

func newStream(seed int64, spec serveSpec, clients int) *stream {
	st := &stream{spec: spec, rngs: make([]*rand.Rand, clients), sent: make([]int, clients)}
	for i := range st.rngs {
		st.rngs[i] = rand.New(rand.NewSource(seed*7919 + int64(i) + 1))
	}
	return st
}

// next draws client i's next request. Clients start at different
// points of the cycle, so they do not send the same kind in lockstep.
func (st *stream) next(i int) *request {
	seq := st.sent[i]
	st.sent[i]++
	kinds := st.spec.kinds
	return st.spec.gen(kinds[(seq+i*len(kinds)/len(st.rngs))%len(kinds)], seq, st.rngs[i])
}

// window runs the clients' streams until d has passed, and for at
// least one request per client.
func (s *server) window(d time.Duration, st *stream, after func(*sample)) ([]sample, time.Duration) {
	deadline := time.Now().Add(d)
	sent := make([]bool, len(s.clients))
	return s.load(func(i int) *request {
		if sent[i] && time.Now().After(deadline) {
			return nil
		}
		sent[i] = true
		return st.next(i)
	}, after)
}

func latenciesMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = ms(s.lat)
	}
	return out
}

const serveSegments = 8

// runServe measures a serve workload. The load comes from this process
// alone: GOMAXPROCS clients (nproc), one keep-alive connection each.
func runServe(cfg config, spec serveSpec) (*report, error) {
	clients := runtime.GOMAXPROCS(0)
	v := newVerifier()
	var ids atomic.Int64
	if cfg.trace {
		return traceServe(cfg, spec, v, clients, &ids)
	}

	// The run is cut into segments. Each spends its first fifth, and at
	// least one round, in rounds: a round mounts a fresh server (setup_s)
	// and sends the run's list through it cold (cold_s) and again
	// (warm_s); both report the fastest tenth of the rounds, which are
	// spread over the run so that a burst of load from other tenants of
	// the machine cannot slow them all. The last round's server then
	// carries the closed-loop window for the rest of the segment (rps,
	// p50_ms, p99_ms over every segment's window).
	b := spec.batch(rand.New(rand.NewSource(cfg.seed ^ 0x5eed)))
	st := newStream(cfg.seed, spec, clients)
	var setups, colds, warms []float64
	var all, win []sample
	var busy time.Duration
	start := time.Now()
	for seg := 1; seg <= serveSegments; seg++ {
		var srv *server
		roundsEnd := time.Now().Add(cfg.dur / serveSegments / 5)
		for srv == nil || time.Now().Before(roundsEnd) {
			if srv != nil {
				srv.stop()
			}
			t := time.Now()
			s, err := startServer(clients, &ids)
			if err != nil {
				return nil, fmt.Errorf("mounting the server: %w", err)
			}
			setups = append(setups, time.Since(t).Seconds())
			srv = s
			cold, dc := srv.pass(b, nil)
			warm, dw := srv.pass(b, nil)
			colds = append(colds, dc.Seconds())
			warms = append(warms, dw.Seconds())
			all = append(append(all, cold...), warm...)
		}
		w, elapsed := srv.window(time.Until(start.Add(cfg.dur*time.Duration(seg)/serveSegments)), st, nil)
		srv.stop()
		win = append(win, w...)
		busy += elapsed
	}
	rss := maxRSSMB()
	all = append(all, win...)

	rep := v.checkAll(all)
	lat := latenciesMS(win)
	rep.metrics = map[string]float64{
		"setup_s":    median(setups),
		"max_rss_mb": rss,
		"rps":        float64(len(win)) / busy.Seconds(),
		"p50_ms":     percentile(lat, 0.50),
		"p99_ms":     percentile(lat, 0.99),
		"cold_s":     percentile(colds, fastQ),
		"warm_s":     percentile(warms, fastQ),
	}
	rep.notes = map[string]any{
		"clients": clients, "rounds": len(setups), "window_requests": len(win),
		"beyond_p99": beyond(lat, 0.99),
	}
	return rep, nil
}

// traceServe replays the workload's stream on one server: a traced
// cache-filling pass of the run's list (the end-to-end window also
// meets a warm server; on serve-repeat these misses are the only engine
// calls), an untraced window, then a traced window of the same seeded
// stream. After each traced round trip, outside its span, the client
// replays directly the layer calls the server made for the request.
func traceServe(cfg config, spec serveSpec, v *verifier, clients int, ids *atomic.Int64) (*report, error) {
	srv, err := startServer(clients, ids)
	if err != nil {
		return nil, fmt.Errorf("mounting the server: %w", err)
	}
	defer srv.stop()
	rec := newRecorder()
	trace := func(s *sample) {
		root := rec.add(0, s.id, "client."+kindName[s.req.kind], "transport", s.start, s.start.Add(s.lat))
		if s.status == http.StatusOK {
			// The handler's own interval is not visible from the client;
			// the reported time is centered inside the round trip.
			hs := s.start.Add((s.lat - s.handler) / 2)
			rec.add(root, s.id, "serve.handler", "serve", hs, hs.Add(s.handler))
			v.replay(rec, s)
		}
	}
	fill, _ := srv.pass(spec.batch(rand.New(rand.NewSource(cfg.seed^0x5eed))), trace)

	before := obs.Default.Snapshot()
	plain, _ := srv.window(cfg.dur/2, newStream(cfg.seed, spec, clients), nil)
	after := obs.Default.Snapshot()

	traced, _ := srv.window(cfg.dur/2, newStream(cfg.seed, spec, clients), trace)

	rep := v.checkAll(append(append(fill, plain...), traced...))
	diff := func(name string) float64 {
		a, _ := after[name].(int64)
		b, _ := before[name].(int64)
		return float64(a - b)
	}
	m := map[string]float64{
		"serve.cache.hit_ratio":            ratio(diff("serve.cache.hits"), diff("serve.cache.hits")+diff("serve.cache.misses")),
		"serve.check.probe.lanes_per_word": ratio(diff("serve.check.probe.lanes"), diff("serve.check.probe.words")),
		"trace.overhead_pct":               overheadPct(median(latenciesMS(traced)), median(latenciesMS(plain))),
	}
	var handler, transport []float64
	var handlerSum time.Duration
	for _, s := range traced {
		if s.status == http.StatusOK {
			handler = append(handler, us(s.handler))
			transport = append(transport, us(s.lat-s.handler))
		}
	}
	for _, s := range append(fill, traced...) {
		if s.status == http.StatusOK {
			handlerSum += s.handler
		}
	}
	m["serve.handler_us"] = median(handler)
	m["serve.transport_us"] = median(transport)
	for k := 0; k < numKinds; k++ {
		var lat []float64
		for _, s := range plain {
			if s.req.kind == k {
				lat = append(lat, ms(s.lat))
			}
		}
		m["serve."+kindName[k]+".p50_ms"] = percentile(lat, 0.50)
		m["serve."+kindName[k]+".p99_ms"] = percentile(lat, 0.99)
	}
	engines := []string{"network.evalbits", "sortcheck.zeroone", "halver.epsilon", "delta.decompose",
		"core.theorem41", "core.certificate_verify", "core.optimal"}
	for _, name := range append([]string{"network.parse", "network.compile"}, engines...) {
		m[name+"_us"] = rec.medianUS(name)
	}
	rep.metrics = m
	rep.notes = map[string]any{
		"clients": clients, "plain_requests": len(plain), "traced_requests": len(traced),
		// Replayed engine time over server-reported handler time, over
		// every traced round trip: most of it on serve-fresh, a small
		// share on serve-repeat.
		"engine_share_of_handler": ratio(float64(rec.sumOf(engines...)), float64(handlerSum)),
	}
	if err := rec.finish(cfg, rep.notes); err != nil {
		return nil, err
	}
	return rep, nil
}
