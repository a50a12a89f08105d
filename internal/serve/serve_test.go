package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"shufflenet/internal/delta"
	"shufflenet/internal/netbuild"
	"shufflenet/internal/network"
	"shufflenet/internal/obs"
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
	ts := httptest.NewServer(New(Config{
		MaxInFlight:    1,
		CoalesceWindow: 500 * time.Millisecond,
	}).Handler())
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
	time.Sleep(100 * time.Millisecond) // let the probe take the slot and park

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

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("want 2 journal lines, got %d: %s", len(lines), raw)
	}
	var recs []requestRecord
	for _, line := range lines {
		var r requestRecord
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatalf("bad journal line %q: %v", line, err)
		}
		recs = append(recs, r)
	}
	if recs[0].Type != "request" || recs[0].Endpoint != "check" || recs[0].Status != 200 || recs[0].N != 4 {
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
