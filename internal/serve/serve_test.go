package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"shufflenet/internal/bits"
	"shufflenet/internal/core"
	"shufflenet/internal/delta"
	"shufflenet/internal/halver"
	"shufflenet/internal/netbuild"
	"shufflenet/internal/network"
	"shufflenet/internal/obs"
	"shufflenet/internal/perm"
	"shufflenet/internal/randnet"
)

func netText(t testing.TB, c *network.Network) string {
	t.Helper()
	var b bytes.Buffer
	if err := c.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func post(t testing.TB, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	var buf []byte
	switch b := body.(type) {
	case string:
		buf = []byte(b)
	default:
		var err error
		buf, err = json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	out := new(bytes.Buffer)
	out.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, out.Bytes()
}

func decode(t testing.TB, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("bad response body %q: %v", raw, err)
	}
}

// butterflyRDN builds the n-wire single-block butterfly iterated RDN —
// the canonical circuit the paper's adversary applies to.
func butterflyRDN(t testing.TB, n, lgn int) *network.Network {
	t.Helper()
	it := delta.NewIterated(n)
	it.AddBlock(nil, delta.Butterfly(lgn))
	c, _ := it.ToNetwork()
	return c
}

// TestServeHappyPaths drives every endpoint end to end over real HTTP:
// a sorter checks true, a non-sorter checks false with the witness, ε
// comes back exact, the adversary returns a verified certificate, and
// the optimum search returns the exact noncolliding maximum.
func TestServeHappyPaths(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	resp, raw := post(t, ts, "/v1/check", map[string]any{"network": netText(t, netbuild.Bitonic(8))})
	if resp.StatusCode != 200 {
		t.Fatalf("check sorter: %d %s", resp.StatusCode, raw)
	}
	var cr checkResponse
	decode(t, raw, &cr)
	if cr.Sorts == nil || !*cr.Sorts || cr.N != 8 || cr.Witness != nil {
		t.Fatalf("check sorter: %s", raw)
	}

	oneLevel := network.New(4).AddComparators(0, 1, 2, 3)
	resp, raw = post(t, ts, "/v1/check", map[string]any{"network": netText(t, oneLevel)})
	var cr2 checkResponse
	decode(t, raw, &cr2)
	if resp.StatusCode != 200 || cr2.Sorts == nil || *cr2.Sorts {
		t.Fatalf("check non-sorter: %d %s", resp.StatusCode, raw)
	}
	if cr2.WitnessMask == nil || len(cr2.Witness) != 4 {
		t.Fatalf("missing witness: %s", raw)
	}
	// The witness must actually fail: re-evaluate it locally.
	out := oneLevel.Eval(cr2.Witness)
	sorted := true
	for i := 1; i < len(out); i++ {
		if out[i-1] > out[i] {
			sorted = false
		}
	}
	if sorted {
		t.Fatalf("returned witness %v does not fail the network", cr2.Witness)
	}

	resp, raw = post(t, ts, "/v1/halver", map[string]any{"network": netText(t, netbuild.HalfCleaner(8))})
	var hr halverResponse
	decode(t, raw, &hr)
	if resp.StatusCode != 200 || hr.Epsilon != 0.5 {
		// A lone half-cleaner is exactly a 1/2-halver: pairing the k ones
		// up leaves ⌊k/2⌋ of them in the top half.
		t.Fatalf("halver: half-cleaner has ε = 1/2, got %d %s", resp.StatusCode, raw)
	}

	resp, raw = post(t, ts, "/v1/adversary", map[string]any{"network": netText(t, butterflyRDN(t, 16, 4))})
	var ar adversaryResponse
	decode(t, raw, &ar)
	if resp.StatusCode != 200 {
		t.Fatalf("adversary: %d %s", resp.StatusCode, raw)
	}
	if !ar.SortingRuledOut || ar.Certificate == nil || ar.DSize < 2 || len(ar.Reports) != 1 {
		t.Fatalf("adversary: expected a certificate on a 1-block butterfly, got %s", raw)
	}

	resp, raw = post(t, ts, "/v1/optimal", map[string]any{"network": netText(t, network.New(8).AddComparators(0, 1, 2, 3, 4, 5, 6, 7))})
	var or optimalResponse
	decode(t, raw, &or)
	if resp.StatusCode != 200 || or.OptimalD < 2 || len(or.Set) != or.OptimalD || or.Pattern == "" {
		t.Fatalf("optimal: %d %s", resp.StatusCode, raw)
	}

	// Health and debug surfaces answer on the server's own mux.
	for _, path := range []string{"/healthz", "/debug/progress", "/debug/vars"} {
		gr, err := http.Get(ts.URL + path)
		if err != nil || gr.StatusCode != 200 {
			t.Fatalf("GET %s: %v %v", path, gr, err)
		}
		gr.Body.Close()
	}
}

// TestServeMappedMemoGauge: the shared table lives in a mapping
// outside the Go heap, which memstats cannot see; /debug/vars must
// carry it as core.optimal.memo.mapped_bytes while the server is up.
func TestServeMappedMemoGauge(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Registry map[string]json.RawMessage `json:"shufflenet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatal(err)
	}
	raw, ok := vars.Registry["core.optimal.memo.mapped_bytes"]
	if !ok {
		t.Fatal("/debug/vars lacks core.optimal.memo.mapped_bytes")
	}
	var mapped int64
	decode(t, raw, &mapped)
	if table := s.MemoStats().Bytes; mapped < table && (runtime.GOOS == "linux" || runtime.GOOS == "darwin") {
		t.Fatalf("mapped_bytes = %d with a live %d-byte table", mapped, table)
	}
}

// TestServeFormats: the DOT and register serializations of a network
// produce the same verdict as its text form, and the register
// machine's final placement is folded in (a register network that
// sorts via exchanges still checks true).
func TestServeFormats(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	sorter := netbuild.Bitonic(8)

	var dot bytes.Buffer
	if err := sorter.WriteDOT(&dot, "s"); err != nil {
		t.Fatal(err)
	}
	resp, raw := post(t, ts, "/v1/check", map[string]any{"network": dot.String(), "format": "dot"})
	var cr checkResponse
	decode(t, raw, &cr)
	if resp.StatusCode != 200 || cr.Sorts == nil || !*cr.Sorts {
		t.Fatalf("dot check: %d %s", resp.StatusCode, raw)
	}

	reg, _ := network.ToRegister(sorter)
	var rt bytes.Buffer
	if err := reg.WriteText(&rt); err != nil {
		t.Fatal(err)
	}
	resp, raw = post(t, ts, "/v1/check", map[string]any{"network": rt.String(), "format": "register"})
	var cr2 checkResponse
	decode(t, raw, &cr2)
	if resp.StatusCode != 200 || cr2.Sorts == nil || !*cr2.Sorts {
		t.Fatalf("register check: %d %s", resp.StatusCode, raw)
	}
}

// TestServeMalformedRequests: every malformed body is a clean 4xx with
// a JSON error envelope — never a 500, never a hang.
func TestServeMalformedRequests(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	fly8 := netText(t, butterflyRDN(t, 8, 3))
	cases := []struct {
		name, path string
		body       any
		want       int
	}{
		{"not-json", "/v1/check", `{not json`, 400},
		{"unknown-field", "/v1/check", `{"network":"wires 2\n","bogus":1}`, 400},
		{"missing-network", "/v1/check", map[string]any{}, 400},
		{"bad-network", "/v1/check", map[string]any{"network": "wires 4\nlevel 9:1\n"}, 400},
		{"bad-format", "/v1/check", map[string]any{"network": "wires 2\n", "format": "yaml"}, 400},
		{"bad-dot", "/v1/halver", map[string]any{"network": "not dot", "format": "dot"}, 400},
		{"too-wide-check", "/v1/check", map[string]any{"network": "wires 40\n"}, 422},
		{"probe-mask-range", "/v1/check", map[string]any{"network": "wires 4\nlevel 0:1\n", "inputs": []uint64{99}}, 400},
		{"odd-halver", "/v1/halver", map[string]any{"network": "wires 5\n"}, 422},
		{"too-wide-optimal", "/v1/optimal", map[string]any{"network": "wires 30\n"}, 422},
		{"non-pow2-adversary", "/v1/adversary", map[string]any{"network": "wires 6\n"}, 422},
		{"non-rdn-adversary", "/v1/adversary", map[string]any{"network": netText(t, netbuild.OddEvenTransposition(8))}, 422},
		{"negative-k-adversary", "/v1/adversary", map[string]any{"network": fly8, "k": -1}, 422},
		{"k-above-max-adversary", "/v1/adversary", map[string]any{"network": fly8, "k": 65}, 422},
		{"huge-k-adversary", "/v1/adversary", map[string]any{"network": fly8, "k": 1 << 22}, 422},
	}
	for _, tc := range cases {
		resp, raw := post(t, ts, tc.path, tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d want %d (%s)", tc.name, resp.StatusCode, tc.want, raw)
			continue
		}
		var eb errorBody
		if err := json.Unmarshal(raw, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %q is not the JSON envelope", tc.name, raw)
		}
	}

	// A few header bytes declare a circuit's width, so the width caps
	// must answer before anything is allocated per wire or register:
	// under 1 MiB per request, the client's share included. A register
	// body is also refused by its shape before it is parsed, since
	// converting it walks every register at every step: above 2^16
	// registers, or above 64 register-steps per body byte. A body
	// within that budget is parsed in full before the check's width
	// cap refuses it, and its named-permutation steps must cost no
	// allocation per register: the last row holds 3.7M register-steps
	// in 64,815 bytes.
	for _, tc := range []struct {
		name, path, network, format string
		budget                      uint64 // bytes allocated to answer; 0 means 1 MiB
	}{
		{"2^20-wire adversary", "/v1/adversary", "wires 1048576\n", "", 0},
		{"2^24-wire adversary", "/v1/adversary", "wires 16777216\n", "", 0},
		{"2^20-register check", "/v1/check", "registers 1048576\n", "register", 0},
		{"2^20-register check with a shuffle step", "/v1/check", "registers 1048576\nstep . pi shuffle\n", "register", 0},
		{"2^16 registers × 100 shuffle steps", "/v1/check",
			"registers 65536\n" + strings.Repeat("step . pi shuffle\n", 100), "register", 0},
		{"10^17-register check", "/v1/check", "registers 100000000000000000\n", "register", 0},
		{"10^17-wire check", "/v1/check", "wires 100000000000000000\nlevel 0:1\n", "", 0},
		{"2^24-wire adversary with a level", "/v1/adversary", "wires 16777216\nlevel 0:1\n", "", 0},
		{"1024 registers × 3600 shuffle steps", "/v1/check",
			"registers 1024\n" + strings.Repeat("step . pi shuffle\n", 3600), "register", 4 << 20},
	} {
		budget := tc.budget
		if budget == 0 {
			budget = 1 << 20
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, raw := post(t, ts, tc.path, map[string]any{"network": tc.network, "format": tc.format})
		runtime.ReadMemStats(&after)
		if resp.StatusCode != 422 {
			t.Errorf("%s: status %d want 422 (%.200s)", tc.name, resp.StatusCode, raw)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= budget {
			t.Errorf("%s: allocated %d bytes to answer, want under %d", tc.name, grew, budget)
		}
	}

	// Wrong method and unknown path.
	gr, err := http.Get(ts.URL + "/v1/check")
	if err != nil || gr.StatusCode != 405 {
		t.Fatalf("GET /v1/check: %v %v", gr.StatusCode, err)
	}
	gr.Body.Close()
	gr, err = http.Get(ts.URL + "/v1/nope")
	if err != nil || gr.StatusCode != 404 {
		t.Fatalf("GET /v1/nope: %v %v", gr.StatusCode, err)
	}
	gr.Body.Close()
}

// TestRegisterShape pins the pre-parse scan of register bodies: it
// reads the first declared count and counts step lines under every
// line ending the parser accepts, and the register-step budget admits
// the widest network the daemon takes with its ops written out, a
// one-block shuffle network on 2^16 registers.
func TestRegisterShape(t *testing.T) {
	for _, tc := range []struct {
		body        string
		regs, steps int
	}{
		{"registers 8\nstep ++++ pi shuffle\nstep .\n", 8, 2},
		{"# c\r\nregisters\t8\r\nstep . pi shuffle\rstep ++++\n  step .  \n", 8, 3},
		{"registers 8\nregisters 1048576\nstep .\n", 8, 1},
		{"registers x\nstep .\n", 0, 1},
		{"steps 4\nstepper\n", 0, 0},
	} {
		if regs, steps := registerShape(tc.body); regs != tc.regs || steps != tc.steps {
			t.Errorf("registerShape(%q) = %d, %d; want %d, %d", tc.body, regs, steps, tc.regs, tc.steps)
		}
	}
	var b bytes.Buffer
	if err := randnet.ButterflyPasses(maxAdversaryWires, 1).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	regs, steps := registerShape(b.String())
	if regs != maxAdversaryWires || steps != 16 {
		t.Fatalf("one-block network on 2^16 registers reads as %d registers, %d steps", regs, steps)
	}
	if budget := registerStepsPerByte * int64(b.Len()); int64(regs)*int64(steps) > budget {
		t.Fatalf("%d registers × %d steps exceeds the %d-byte body's budget %d", regs, steps, b.Len(), budget)
	}
}

// TestServeAdversaryWide: a one-block reverse delta network on 2^14
// wires is answered in seconds. Each step of the decomposition visits
// only its own rails' comparators; one that scanned whole levels took
// minutes at the 2^16 cap, past the request's deadline.
func TestServeAdversaryWide(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and decomposes a 2^14-wire circuit")
	}
	const n = 1 << 14
	rng := rand.New(rand.NewSource(1))
	it := delta.NewIterated(n)
	it.AddBlock(perm.Random(n, rng), delta.Random(14, 1, rng))
	c, _ := it.ToNetwork()
	body, err := json.Marshal(map[string]any{"network": netText(t, c)})
	if err != nil {
		t.Fatal(err)
	}
	h := New(Config{}).Handler()
	start := time.Now()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/adversary", bytes.NewReader(body)))
	took := time.Since(start)
	if w.Code != 200 {
		t.Fatalf("status %d (%.300s)", w.Code, w.Body.Bytes())
	}
	if took > 3*time.Second {
		t.Fatalf("a 2^14-wire adversary request took %v, want under 3s", took)
	}
	t.Logf("2^14-wire adversary: %d-byte body in %v", w.Body.Len(), took)
}

// TestServeAdversaryDecomposeTimeout: the request deadline reaches the
// decomposition. A one-block reverse delta network on 2^10 wires with
// each comparator kept with probability 0.1 sends its split search
// backtracking for about a minute; with timeout_ms 200 the request
// answers 504 within 2 s instead of holding its admission slot.
func TestServeAdversaryDecomposeTimeout(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	it := delta.NewIterated(1 << 10)
	it.AddBlock(perm.Random(1<<10, rng), delta.Random(10, 0.1, rng))
	c, _ := it.ToNetwork()
	body, err := json.Marshal(map[string]any{"network": netText(t, c), "timeout_ms": 200})
	if err != nil {
		t.Fatal(err)
	}
	h := New(Config{}).Handler()
	start := time.Now()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/adversary", bytes.NewReader(body)))
	took := time.Since(start)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d after %v, want 504 (%.300s)", w.Code, took, w.Body.Bytes())
	}
	if took > 2*time.Second {
		t.Fatalf("a 200 ms deadline answered after %v", took)
	}
	var eb errorBody
	decode(t, w.Body.Bytes(), &eb)
	if op := eb.Partial["op"]; op != "delta.DecomposeIterated" {
		t.Fatalf("partial op %v, want delta.DecomposeIterated (%s)", op, w.Body.Bytes())
	}
}

// TestServeDeadlinePartial: a request whose deadline expires answers
// 504 and the error body carries the engine's partial progress — the
// *par.ErrCanceled fields plus the halver's ε lower bound.
func TestServeDeadlinePartial(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	// 26 wires = 2^26 masks: far more than a 1 ms deadline allows, but
	// chunk-level cancellation checks surface the 504 in milliseconds.
	resp, raw := post(t, ts, "/v1/halver", map[string]any{
		"network": netText(t, netbuild.OddEvenTransposition(26)), "timeout_ms": 1,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d want 504 (%s)", resp.StatusCode, raw)
	}
	var eb errorBody
	decode(t, raw, &eb)
	if eb.Error == "" || eb.Partial == nil {
		t.Fatalf("504 body missing partial fields: %s", raw)
	}
	for _, key := range []string{"op", "cause", "masks_checked", "epsilon_lower_bound"} {
		if _, ok := eb.Partial[key]; !ok {
			t.Errorf("partial missing %q: %s", key, raw)
		}
	}
	if op := eb.Partial["op"]; op != "halver.Epsilon" {
		t.Errorf("partial op %v", op)
	}
}

// TestServeAdmissionControl: with MaxInFlight=1 and one request parked
// inside its coalescing window (holding the admission slot), the next
// request is answered 429 immediately — the server sheds load instead
// of queueing it.
func TestServeAdmissionControl(t *testing.T) {
	s := New(Config{
		MaxInFlight:    1,
		CoalesceWindow: 500 * time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sorter := netText(t, netbuild.Bitonic(8))

	release := make(chan struct{})
	go func() {
		defer close(release)
		resp, raw := post(t, ts, "/v1/check", map[string]any{"network": sorter, "inputs": []uint64{1}})
		if resp.StatusCode != 200 {
			t.Errorf("parked probe: %d %s", resp.StatusCode, raw)
		}
	}()
	// Wait until the probe holds the only slot (it then parks for the
	// coalescing window) instead of guessing how long that takes.
	for deadline := time.Now().Add(5 * time.Second); len(s.sem) != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the probe never took the admission slot")
		}
	}

	start := time.Now()
	resp, raw := post(t, ts, "/v1/check", map[string]any{"network": sorter})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d want 429 (%s)", resp.StatusCode, raw)
	}
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("429 took %v; admission control must answer immediately", d)
	}
	var eb errorBody
	decode(t, raw, &eb)
	if !strings.Contains(eb.Error, "capacity") {
		t.Fatalf("429 body: %s", raw)
	}
	<-release
}

// TestServeCoalescing: many concurrent single-mask probe requests of
// the same network share SWAR words. The words/lanes counters prove
// it: 24 requests of one mask each must settle in at most a couple of
// 64-lane kernel words, not 24.
func TestServeCoalescing(t *testing.T) {
	ts := httptest.NewServer(New(Config{
		MaxInFlight:    64,
		CoalesceWindow: 300 * time.Millisecond,
	}).Handler())
	defer ts.Close()
	sorter := netbuild.Bitonic(8)
	text := netText(t, sorter)

	lanes0 := metProbeLanes.Value()
	words0 := metProbeWords.Value()

	const requests = 24
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mask := uint64(i) & 0xff
			resp, raw := post(t, ts, "/v1/check", map[string]any{"network": text, "inputs": []uint64{mask}})
			if resp.StatusCode != 200 {
				t.Errorf("probe %d: %d %s", i, resp.StatusCode, raw)
				return
			}
			var cr checkResponse
			if err := json.Unmarshal(raw, &cr); err != nil || len(cr.Probes) != 1 {
				t.Errorf("probe %d: %s", i, raw)
				return
			}
			// Every probe of a sorting network is sorted.
			if !cr.Probes[0].Sorted || cr.Probes[0].Mask != mask {
				t.Errorf("probe %d: %+v", i, cr.Probes[0])
			}
		}(i)
	}
	wg.Wait()

	lanes := metProbeLanes.Value() - lanes0
	words := metProbeWords.Value() - words0
	if lanes != requests {
		t.Fatalf("lanes %d want %d", lanes, requests)
	}
	// All requests arrive well inside one 300 ms window, so they pack
	// into very few words. Allow a little slack for straggler flushes,
	// but far below one word per request — that is the coalescing claim.
	if words > 4 {
		t.Fatalf("%d requests needed %d kernel words; expected them to share (≤4)", requests, words)
	}
	t.Logf("coalescing: %d probe lanes in %d kernel words", lanes, words)
}

// TestServeOptimalDeterminism: /v1/optimal bodies are byte-identical
// cold (first computation), warm (recompute against the shared memo,
// nocache), and cached (body replay) — the warm-vs-cold determinism
// guarantee the A-series experiments rely on, now over HTTP.
func TestServeOptimalDeterminism(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	circ := netText(t, netbuild.OddEvenTransposition(10))

	resp, cold := post(t, ts, "/v1/optimal", map[string]any{"network": circ, "nocache": true})
	if resp.StatusCode != 200 {
		t.Fatalf("cold: %d %s", resp.StatusCode, cold)
	}
	if h := resp.Header.Get("X-Cache"); h != "" {
		t.Fatalf("nocache request reported X-Cache %q", h)
	}
	resp, warm := post(t, ts, "/v1/optimal", map[string]any{"network": circ, "nocache": true})
	if resp.StatusCode != 200 {
		t.Fatalf("warm: %d %s", resp.StatusCode, warm)
	}
	resp, miss := post(t, ts, "/v1/optimal", map[string]any{"network": circ})
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("fill: %d X-Cache=%q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	resp, hit := post(t, ts, "/v1/optimal", map[string]any{"network": circ})
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("hit: %d X-Cache=%q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(cold, warm) || !bytes.Equal(cold, miss) || !bytes.Equal(cold, hit) {
		t.Fatalf("bodies differ across cold/warm/miss/hit:\n%s\n%s\n%s\n%s", cold, warm, miss, hit)
	}
}

// TestServeOptimalRefusesBadWitness: a search result that is no
// witness on the circuit answers 500 and is not cached, so the next
// request for the circuit computes afresh.
func TestServeOptimalRefusesBadWitness(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	circ := netText(t, netbuild.OddEvenTransposition(8))
	search := optimalSearch
	defer func() { optimalSearch = search }()
	// Size 8, every key digit M: a well-formed witness whose pattern
	// the sorter's first comparator already collides.
	optimalSearch = func(context.Context, *network.Network, core.OptimalOptions) (uint64, error) {
		return 8<<16 | 0xffff, nil
	}
	resp, raw := post(t, ts, "/v1/optimal", map[string]any{"network": circ})
	var eb errorBody
	decode(t, raw, &eb)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(eb.Error, "collides on the circuit") {
		t.Fatalf("forged witness: %d %s", resp.StatusCode, raw)
	}
	optimalSearch = search
	resp, raw = post(t, ts, "/v1/optimal", map[string]any{"network": circ})
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("after the refusal: %d X-Cache=%q %s", resp.StatusCode, resp.Header.Get("X-Cache"), raw)
	}
}

// stableRequests is TestServeBodiesStable's request list: every
// endpoint on cacheable, nocache and probe requests, and each 4xx
// class.
func stableRequests(t *testing.T) []struct{ method, path, body string } {
	t.Helper()
	type rq = struct{ method, path, body string }
	js := func(v map[string]any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	text := func(c *network.Network) string { return netText(t, c) }
	reg, _ := network.ToRegister(netbuild.Bitonic(8))
	var regText bytes.Buffer
	if err := reg.WriteText(&regText); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	rdn := func(n, blocks int) string {
		it := delta.NewIterated(n)
		for b := 0; b < blocks; b++ {
			it.AddBlock(perm.Random(n, rng), delta.Random(bits.Lg(n), 1, rng))
		}
		c, _ := it.ToNetwork()
		return text(c)
	}
	reqs := []rq{
		{"POST", "/v1/check", js(map[string]any{"network": text(netbuild.Bitonic(8))})},
		{"POST", "/v1/check", js(map[string]any{"network": text(network.New(4).AddComparators(0, 1, 2, 3))})},
		{"POST", "/v1/check", js(map[string]any{"network": regText.String(), "format": "register"})},
		{"POST", "/v1/check", js(map[string]any{"network": text(netbuild.Bitonic(16)), "nocache": true})},
		{"POST", "/v1/check", js(map[string]any{"network": text(netbuild.Bitonic(16)), "inputs": []uint64{0x5a5a, 0x00ff, 1}})},
		{"POST", "/v1/check", js(map[string]any{"network": text(network.New(4).AddComparators(0, 1)), "inputs": []uint64{2, 3}})},
		{"POST", "/v1/halver", js(map[string]any{"network": text(netbuild.HalfCleaner(8))})},
		{"POST", "/v1/halver", js(map[string]any{"network": text(halver.CrossMatchings(16, 2, rng))})},
		{"POST", "/v1/optimal", js(map[string]any{"network": text(netbuild.OddEvenTransposition(10))})},
		{"POST", "/v1/optimal", js(map[string]any{"network": text(randnet.Levels(10, 6, rng)), "nocache": true})},
		{"POST", "/v1/adversary", js(map[string]any{"network": text(butterflyRDN(t, 16, 4))})},
		{"POST", "/v1/adversary", js(map[string]any{"network": rdn(64, 2), "k": 2})},
		{"POST", "/v1/adversary", js(map[string]any{"network": rdn(16, 1), "nocache": true})},
		{"GET", "/v1/check", ""},
		{"POST", "/v1/check", `{not json`},
		{"POST", "/v1/check", `{"network":"wires 2\n","bogus":1}`},
		{"POST", "/v1/check", js(map[string]any{})},
		{"POST", "/v1/check", js(map[string]any{"network": "wires 4\nlevel 9:1\n"})},
		{"POST", "/v1/check", js(map[string]any{"network": "wires 2\n", "format": "yaml"})},
		{"POST", "/v1/check", js(map[string]any{"network": "wires 40\n"})},
		{"POST", "/v1/check", js(map[string]any{"network": "wires 4\nlevel 0:1\n", "inputs": []uint64{99}})},
		{"POST", "/v1/halver", js(map[string]any{"network": "wires 5\n"})},
		{"POST", "/v1/optimal", js(map[string]any{"network": "wires 30\n"})},
		{"POST", "/v1/adversary", js(map[string]any{"network": "wires 6\n"})},
		{"POST", "/v1/adversary", js(map[string]any{"network": text(netbuild.OddEvenTransposition(8))})},
		{"POST", "/v1/adversary", js(map[string]any{"network": text(butterflyRDN(t, 8, 3)), "k": 65})},
		{"POST", "/v1/check", js(map[string]any{"network": "registers 1048576\n", "format": "register"})},
	}
	for i := 0; i < 8; i++ {
		reqs = append(reqs, rq{"POST", "/v1/adversary", js(map[string]any{"network": rdn(16, 1)})})
	}
	return reqs
}

// TestServeBodiesStable: two fresh servers answer one request list,
// each request sent twice, with the same status, X-Cache value and
// body, and every cache hit replays its miss byte for byte. The
// adversary's bodies depend on the decomposition it recovers, which
// must not change from call to call.
func TestServeBodiesStable(t *testing.T) {
	reqs := stableRequests(t)
	type answer struct {
		status int
		cache  string
		body   string
	}
	serve := func() []answer {
		h := New(Config{}).Handler()
		var out []answer
		for _, rq := range reqs {
			for i := 0; i < 2; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(rq.method, rq.path, strings.NewReader(rq.body)))
				out = append(out, answer{w.Code, w.Header().Get("X-Cache"), w.Body.String()})
			}
		}
		return out
	}
	a, b := serve(), serve()
	sum := sha256.New()
	for i, rq := range reqs {
		miss, hit := a[2*i], a[2*i+1]
		if a[2*i] != b[2*i] || a[2*i+1] != b[2*i+1] {
			t.Errorf("%s %s %.80s: fresh servers answered differently:\n%+.300v\n%+.300v", rq.method, rq.path, rq.body, a[2*i], b[2*i])
		}
		if miss.cache == "miss" {
			miss.cache = "hit"
		}
		if miss != hit {
			t.Errorf("%s %s %.80s: the repeat answered differently:\n%+.300v\n%+.300v", rq.method, rq.path, rq.body, a[2*i], hit)
		}
		for _, x := range a[2*i : 2*i+2] {
			fmt.Fprintf(sum, "%d %q %q\n", x.status, x.cache, x.body)
		}
	}
	t.Logf("%d answers, sha256 %x", len(a), sum.Sum(nil))
}

// TestServeCanonicalCacheKey: two textual spellings of the same
// network (levels listed in different comparator order) share one
// cache entry — the second spelling hits.
func TestServeCanonicalCacheKey(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	a := "wires 4\nlevel 0:1 2:3\n"
	b := "wires 4\nlevel 2:3 0:1\n"
	resp, _ := post(t, ts, "/v1/check", map[string]any{"network": a})
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first spelling: %d %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
	resp, _ = post(t, ts, "/v1/check", map[string]any{"network": b})
	if resp.StatusCode != 200 || resp.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second spelling should hit the canonical cache: %d %q", resp.StatusCode, resp.Header.Get("X-Cache"))
	}
}

// TestCanonicalKeyGolden pins the bytes canonicalKey hashes. The
// response cache is addressed by it, so a change to the canonical
// text would make every warm cache miss without failing anything else.
// The keys were computed by the Fprintf-per-comparator implementation
// this one replaced.
func TestCanonicalKeyGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *network.Network
		want string
	}{
		{"unsorted-level",
			network.New(8).AddComparators(6, 7, 0, 1, 4, 5, 2, 3).AddComparators(5, 7, 1, 3, 0, 2, 4, 6),
			"c75f9734d2bb2dbfe6eb05186ec3f8b4a5e7bd1c30f82fe4f8582cdeb9086a2d"},
		{"reversed-comparator",
			network.New(6).AddComparators(5, 0, 3, 1).AddComparators(2, 4, 1, 0).AddLevel(nil),
			"96c2c231a627705d208ad4c4136dd1e3bef385fff6a510ebfb6490cbc701dfef"},
		{"1024-wire", randnet.Levels(1024, 3, rand.New(rand.NewSource(1))), "05c44216ee82c6fe9ef6b57d2087f8550488a6473dc896f8949476a17d235ec8"},
	} {
		if got := canonicalKey(tc.c); got != tc.want {
			t.Errorf("%s: key %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestRespCacheByteBound: the cache evicts its oldest bodies until
// both its entry and its byte bound hold, and never stores a body
// larger than the byte bound.
func TestRespCacheByteBound(t *testing.T) {
	c := newRespCache(3, 100)
	body := func(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }
	has := func(keys ...string) {
		t.Helper()
		for _, k := range []string{"a", "b", "c", "d", "e", "big"} {
			_, ok := c.m[k]
			if want := slices.Contains(keys, k); ok != want {
				t.Fatalf("key %q cached %v, want %v (cache holds %d bytes)", k, ok, want, c.bytes)
			}
		}
		if len(c.order) != len(keys) {
			t.Fatalf("%d keys in FIFO order, want %d", len(c.order), len(keys))
		}
	}
	c.put("a", body(40))
	c.put("b", body(40))
	has("a", "b")
	c.put("c", body(30)) // 110 bytes: a goes
	has("b", "c")
	c.put("big", body(101)) // over the bound: served, never stored
	has("b", "c")
	c.put("d", body(10))
	c.put("e", body(10)) // 4 entries: b goes
	has("c", "d", "e")
	c.put("a", body(100)) // 150 bytes: c, d and e go
	has("a")
	if c.bytes != 100 {
		t.Fatalf("cache holds %d bytes, want 100", c.bytes)
	}
	if got, ok := c.get("a"); !ok || len(got) != 100 {
		t.Fatalf("get(a) = %d bytes, %v", len(got), ok)
	}
}

// TestServeJournalRecords: with a journal attached, every request
// leaves one type:"request" line with endpoint, status, and latency.
func TestServeJournalRecords(t *testing.T) {
	path := t.TempDir() + "/requests.jsonl"
	j, err := obs.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Journal: j}).Handler())
	post(t, ts, "/v1/check", map[string]any{"network": "wires 4\nlevel 0:1 2:3\n"})
	post(t, ts, "/v1/check", map[string]any{"network": "not a network"})
	ts.Close()
	j.Close()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []RequestRecord
	torn, err := obs.ReadJournal(f, func(_ obs.Header, line []byte) error {
		var r RequestRecord
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		recs = append(recs, r)
		return nil
	})
	if err != nil || torn || len(recs) != 2 {
		t.Fatalf("want 2 journal records, got %d (torn %v, err %v)", len(recs), torn, err)
	}
	if recs[0].Type != RecRequest || recs[0].Time == "" || recs[0].Endpoint != "check" || recs[0].Status != 200 || recs[0].N != 4 {
		t.Fatalf("first record %+v", recs[0])
	}
	if recs[1].Status != 400 || recs[1].Error == "" {
		t.Fatalf("second record %+v", recs[1])
	}
}

// BenchmarkServeCheckProbe measures end-to-end probe latency through
// the full HTTP stack and the coalescer (tiny window so the benchmark
// measures the kernel path, not the batching wait).
func BenchmarkServeCheckProbe(b *testing.B) {
	ts := httptest.NewServer(New(Config{CoalesceWindow: 50 * time.Microsecond}).Handler())
	defer ts.Close()
	body, _ := json.Marshal(map[string]any{
		"network": netText(b, netbuild.Bitonic(16)),
		"inputs":  []uint64{0x5a5a, 0x00ff, 0x1234, 0xfedc},
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("%d %s", resp.StatusCode, buf.Bytes())
		}
	}
}

// BenchmarkServeCacheHit measures the daemon's front layers alone: a
// full /v1/check whose body is cached, served through Handler() into
// an httptest.ResponseRecorder, so no socket is timed — JSON decode,
// body parse, canonical key and the cache lookup. The circuit is the
// shape of perfbench's serve-repeat check requests: one random level
// ahead of the 16-wire bitonic sorter.
func BenchmarkServeCacheHit(b *testing.B) {
	h := New(Config{}).Handler()
	c := randnet.Levels(16, 1, rand.New(rand.NewSource(1))).Append(netbuild.Bitonic(16))
	body, _ := json.Marshal(map[string]any{"network": netText(b, c)})
	hit := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body)))
		if w.Code != 200 {
			b.Fatalf("%d %s", w.Code, w.Body.Bytes())
		}
		return w
	}
	hit() // fill
	if w := hit(); w.Header().Get("X-Cache") != "hit" {
		b.Fatalf("X-Cache %q, want hit", w.Header().Get("X-Cache"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit()
	}
}

// BenchmarkServeOptimalWarm measures /v1/optimal against the shared
// warm memo with the response cache bypassed — the recompute path a
// new-but-identical submission pays after the first client ran.
func BenchmarkServeOptimalWarm(b *testing.B) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	body, _ := json.Marshal(map[string]any{
		"network": netText(b, netbuild.OddEvenTransposition(10)),
		"nocache": true,
	})
	warm := func() {
		resp, err := http.Post(ts.URL+"/v1/optimal", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("%d %s", resp.StatusCode, buf.Bytes())
		}
	}
	warm() // cold fill
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warm()
	}
}

// BenchmarkServeColdPass measures the cold answer per endpoint, the
// service layer of perfbench serve-repeat's cold_s: each op mounts a
// fresh New(Config{MemoBytes: 64 << 20}), the daemon's table size, and
// answers one request through Handler(), so the mount, the engine and
// the optimal leg's first touch of the fresh table's pages are all
// timed. The requests cycle through 8 seeded circuits per leg, at
// serve-repeat's shapes: a 16-wire sorter check (one random level
// ahead of the bitonic sorter), a 16-wire two-pass halver, a 10-wire
// depth-4 optimum and a 16-wire one-block adversary.
func BenchmarkServeColdPass(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bitonic := netbuild.Bitonic(16)
	legs := []struct {
		name, path string
		gen        func() *network.Network
	}{
		{"check", "/v1/check", func() *network.Network { return randnet.Levels(16, 1, rng).Append(bitonic) }},
		{"halver", "/v1/halver", func() *network.Network { return halver.CrossMatchings(16, 2, rng) }},
		{"optimal", "/v1/optimal", func() *network.Network { return randnet.Levels(10, 4, rng) }},
		{"adversary", "/v1/adversary", func() *network.Network {
			it := delta.NewIterated(16)
			it.AddBlock(perm.Random(16, rng), delta.Random(4, 1, rng))
			c, _ := it.ToNetwork()
			return c
		}},
	}
	for _, leg := range legs {
		var bodies [8][]byte
		for i := range bodies {
			bodies[i], _ = json.Marshal(map[string]any{"network": netText(b, leg.gen())})
		}
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := New(Config{MemoBytes: 64 << 20}).Handler()
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, leg.path, bytes.NewReader(bodies[i%len(bodies)])))
				if w.Code != 200 || w.Header().Get("X-Cache") != "miss" {
					b.Fatalf("%d X-Cache=%q %.300s", w.Code, w.Header().Get("X-Cache"), w.Body.Bytes())
				}
			}
		})
	}
}
