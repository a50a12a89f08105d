package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// waitFirstSample blocks until Start's immediate first sample (taken on
// the sampler goroutine) has landed, so tests can drive further samples
// with Emit deterministically.
func waitFirstSample(t *testing.T, p *Progress) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Last() == nil {
		if time.Now().After(deadline) {
			t.Fatal("first sample never arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestProgressHeartbeatTrail simulates a killed run: heartbeats are
// written to the journal but the process "dies" before the final entry.
// The journal tail must be a parseable, monotonic heartbeat sequence
// with honest partial counters — that trail is all a post-mortem has.
func TestProgressHeartbeatTrail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}

	var nodes atomic.Int64
	p := NewProgress("testcmd", "testcmd-1-abc", time.Hour) // ticker never fires; Emit drives sampling
	p.AddSink(JournalSink(j))
	p.Register(func(s *Sample) {
		s.Counter("nodes", nodes.Load())
		s.SetFraction(float64(nodes.Load()), 3000)
	})
	p.Start() // emits the first sample immediately
	waitFirstSample(t, p)
	for i := 0; i < 3; i++ {
		nodes.Add(1000)
		p.Emit()
	}
	// Simulated kill: no Stop, no final entry — just the file closing
	// as the OS would on process death.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	beats := readSamples(t, path)
	if len(beats) != 4 {
		t.Fatalf("got %d journal records, want 4 heartbeats", len(beats))
	}
	lastSeq := int64(-1)
	lastNodes := int64(-1)
	for i, hb := range beats {
		if hb.Type != RecHeartbeat {
			t.Fatalf("line %d type = %q, want heartbeat", i+1, hb.Type)
		}
		if hb.Run != "testcmd-1-abc" {
			t.Fatalf("line %d run = %q: heartbeats must carry the correlation ID", i+1, hb.Run)
		}
		if hb.Final {
			t.Fatalf("line %d marked final, but the run was killed, not stopped", i+1)
		}
		if hb.Seq != lastSeq+1 {
			t.Fatalf("line %d seq = %d, want %d (monotonic, gap-free)", i+1, hb.Seq, lastSeq+1)
		}
		lastSeq = hb.Seq
		n := int64(hb.Fields["nodes"].(float64))
		if n < lastNodes {
			t.Fatalf("line %d nodes = %d went backwards from %d", i+1, n, lastNodes)
		}
		lastNodes = n
	}
	if lastNodes != 3000 {
		t.Fatalf("final heartbeat nodes = %d, want the honest partial count 3000", lastNodes)
	}
}

// TestProgressStopEmitsFinal checks the orderly-shutdown path: Stop
// emits one last sample marked final and closes the sinks.
func TestProgressStopEmitsFinal(t *testing.T) {
	var samples []*Sample
	closed := false
	p := NewProgress("testcmd", "r", time.Hour)
	p.AddSink(struct {
		funcSink
	}{funcSink(func(s *Sample) { samples = append(samples, s) })})
	p.AddSink(SinkFunc(func(*Sample) {}))
	// Track Close via a custom sink.
	p.AddSink(closeSink{fn: func() { closed = true }})
	p.Start()
	p.Stop()
	if len(samples) != 2 {
		t.Fatalf("got %d samples, want 2 (start + final)", len(samples))
	}
	if samples[0].Final || !samples[1].Final {
		t.Fatalf("final flags wrong: %v %v", samples[0].Final, samples[1].Final)
	}
	if !closed {
		t.Fatal("Stop must close sinks")
	}
	if p.Enabled() {
		t.Fatal("stopped engine still reports enabled")
	}
	p.Stop() // idempotent
}

type closeSink struct{ fn func() }

func (c closeSink) Emit(*Sample) {}
func (c closeSink) Close()       { c.fn() }

// TestProgressRatesAndETA checks the derived fields: counter rates from
// consecutive samples and the prefix-completion-rate ETA.
func TestProgressRatesAndETA(t *testing.T) {
	var done atomic.Int64
	var last *Sample
	p := NewProgress("testcmd", "", time.Hour)
	p.AddSink(SinkFunc(func(s *Sample) { last = s }))
	p.Register(func(s *Sample) {
		s.Counter("work", done.Load())
		s.SetFraction(float64(done.Load()), 100)
		s.SetFraction(0, 100) // later setters must lose: first-setter-wins
	})
	p.Start()
	waitFirstSample(t, p)
	done.Store(50)
	time.Sleep(10 * time.Millisecond) // a nonzero dt for the rate
	p.Emit()
	p.on.Store(false) // avoid Stop's extra final sample
	close(p.stop)
	p.wg.Wait()

	if last == nil {
		t.Fatal("no sample emitted")
	}
	if last.Frac != 0.5 {
		t.Fatalf("frac = %v, want 0.5 (and first-setter-wins)", last.Frac)
	}
	if last.EtaMS <= 0 {
		t.Fatalf("eta_ms = %v, want > 0 at 50%% done", last.EtaMS)
	}
	rate, ok := last.Fields["work_per_s"].(float64)
	if !ok || rate <= 0 {
		t.Fatalf("work_per_s = %v, want a positive derived rate", last.Fields["work_per_s"])
	}
	if last.Fields["work"].(int64) != 50 {
		t.Fatalf("work = %v, want 50", last.Fields["work"])
	}
}

// TestProgressLateCounterNoRate: a counter that first appears mid-run
// (e.g. a registry counter only folded in at a worker's defer) has an
// unknown accumulation window — the sample it debuts in must not carry
// a rate, and rating starts from the next sample.
func TestProgressLateCounterNoRate(t *testing.T) {
	var v atomic.Int64
	var appeared atomic.Bool
	var last *Sample
	p := NewProgress("testcmd", "", time.Hour)
	p.AddSink(SinkFunc(func(s *Sample) { last = s }))
	p.Register(func(s *Sample) {
		if appeared.Load() {
			s.Counter("late", v.Load())
		}
	})
	p.Start()
	waitFirstSample(t, p)
	p.Emit() // seq 1: counter still absent
	appeared.Store(true)
	v.Store(1_000_000)
	p.Emit() // seq 2: debut — a rate here would claim 1M ops this tick
	if _, ok := last.Fields["late_per_s"]; ok {
		t.Fatalf("debut sample must not rate an unknown window: %v", last.Fields)
	}
	if last.Fields["late"].(int64) != 1_000_000 {
		t.Fatalf("late = %v, want 1000000", last.Fields["late"])
	}
	v.Store(1_000_100)
	time.Sleep(5 * time.Millisecond)
	p.Emit() // seq 3: now the window is known
	if r, ok := last.Fields["late_per_s"].(float64); !ok || r <= 0 {
		t.Fatalf("late_per_s = %v, want a positive rate from the second observation", last.Fields["late_per_s"])
	}
	p.Stop()
}

// TestProgressEvents checks event buffering: bounded, drained into the
// next sample, drops counted.
func TestProgressEvents(t *testing.T) {
	var last *Sample
	p := NewProgress("testcmd", "", time.Hour)
	p.AddSink(SinkFunc(func(s *Sample) { last = s }))
	p.Start()
	waitFirstSample(t, p)
	for i := 0; i < maxPendingEvents+7; i++ {
		p.Event("incumbent", map[string]any{"size": i})
	}
	p.Emit()
	if len(last.Events) != maxPendingEvents {
		t.Fatalf("got %d events, want the %d cap", len(last.Events), maxPendingEvents)
	}
	if dropped := last.Fields["events_dropped"].(int64); dropped != 7 {
		t.Fatalf("events_dropped = %v, want 7", dropped)
	}
	p.Emit()
	if len(last.Events) != 0 {
		t.Fatalf("events must drain into one sample; second sample has %d", len(last.Events))
	}
	p.Stop()
	p.Event("after-stop", nil) // must be a no-op, not a panic
}

// TestProgressDisabledZeroAlloc proves the disabled hot path allocates
// nothing: Enabled and Event on a nil engine, a never-started engine,
// and a stopped engine.
func TestProgressDisabledZeroAlloc(t *testing.T) {
	var nilP *Progress
	idle := NewProgress("x", "", time.Hour)
	stopped := NewProgress("y", "", time.Hour)
	stopped.Start()
	stopped.Stop()
	for name, p := range map[string]*Progress{"nil": nilP, "idle": idle, "stopped": stopped} {
		p := p
		if n := testing.AllocsPerRun(1000, func() {
			if p.Enabled() {
				t.Fatal("disabled engine reports enabled")
			}
			p.Event("e", nil)
		}); n != 0 {
			t.Errorf("%s engine: %v allocs/op on the disabled path, want 0", name, n)
		}
	}
}

// TestStatusSinkPipe checks the non-TTY rendering: one full line per
// sample, no carriage returns (CI logs must stay readable).
func TestStatusSinkPipe(t *testing.T) {
	var sb strings.Builder
	ss := &StatusSink{w: &sb}
	s := &Sample{Header: Header{Cmd: "adversary"}, ElapsedMS: 1500, Frac: 0.25, fracSet: true, EtaMS: 4500}
	s.Field("core.optimal.nodes", int64(1234567))
	ss.Emit(s)
	ss.Close()
	out := sb.String()
	if strings.Contains(out, "\r") {
		t.Fatalf("pipe output must not use carriage returns: %q", out)
	}
	for _, want := range []string{"adversary", "25%", "eta", "optimal.nodes=1.23M"} {
		if !strings.Contains(out, want) {
			t.Errorf("status line lacks %q: %q", want, out)
		}
	}
}

// BenchmarkProgressDisabled is the zero-alloc proof benchmark for the
// disabled hot path — what every search pays per probe stride when
// -progress is off.
func BenchmarkProgressDisabled(b *testing.B) {
	var p *Progress // the CLIs pass nil when -progress is off
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p.Enabled() {
			b.Fatal("unreachable")
		}
	}
}

// TestStartProgressTwiceSameProcess is the server-readiness regression
// test: two Progress engines started in one process, each mounted on
// its own mux, must not touch http.DefaultServeMux and must not panic.
// The old code registered /debug/progress on the default mux at the
// first Start — the handler leaked onto every server using the default
// mux, and an unguarded second registration is a duplicate-pattern
// panic in net/http. Now the handler is a value (ProgressHandler) the
// caller mounts wherever it wants, any number of times.
func TestStartProgressTwiceSameProcess(t *testing.T) {
	p1 := NewProgress("first", "r1", time.Hour)
	p1.Start()
	defer p1.Stop()
	p2 := NewProgress("second", "r2", time.Hour) // would have re-registered
	p2.Start()
	defer p2.Stop()
	p1.Emit()
	p2.Emit()

	// Each server owns its mux; both can mount the handler.
	for i := 0; i < 2; i++ {
		mux := http.NewServeMux()
		mux.Handle("/debug/progress", ProgressHandler())
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/progress", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("mux %d: /debug/progress status %d", i, rec.Code)
		}
		var samples []Sample
		if err := json.Unmarshal(rec.Body.Bytes(), &samples); err != nil {
			t.Fatalf("mux %d: bad JSON: %v", i, err)
		}
		cmds := map[string]bool{}
		for _, s := range samples {
			cmds[s.Cmd] = true
		}
		if !cmds["first"] || !cmds["second"] {
			t.Fatalf("mux %d: want samples from both engines, got %v", i, cmds)
		}
	}

	// The default mux must not have grown a /debug/progress route: a
	// request against it may hit pprof's catch-all or 404, but never
	// our JSON sample payload.
	rec := httptest.NewRecorder()
	http.DefaultServeMux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/progress", nil))
	if ct := rec.Header().Get("Content-Type"); ct == "application/json" {
		t.Fatalf("/debug/progress leaked onto http.DefaultServeMux (Content-Type %q)", ct)
	}
}
