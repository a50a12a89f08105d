package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is the live-telemetry engine for long-running searches: a
// periodic snapshot ticker that polls registered sources (pull-based,
// so the instrumented hot loops pay nothing between samples), derives
// rates and an ETA, and fans each Sample out to sinks — the CLIs' -progress
// stderr status line, heartbeat records in the JSONL run journal, and
// the /debug/progress endpoint plus expvar on the -pprof debug server.
//
// The hot-path contract matches the metrics registry (DESIGN.md §4,
// decision 12): a nil or stopped Progress costs one atomic load per
// Enabled/Event probe and zero allocations; all real work happens on
// the sampling goroutine at the configured cadence (default 1 s).
// Sources read state the computation already maintains — shared
// atomics, the metric registry — so sampling never perturbs a search,
// and registering a Progress never changes any result (the
// byte-per-seed determinism contract is untouched).
type Progress struct {
	cmd      string
	run      string
	interval time.Duration
	start    time.Time

	// on gates Event/Enabled; Start sets it, Stop clears it. One
	// atomic load is the entire disabled hot path.
	on atomic.Bool

	mu      sync.Mutex
	sources []progressSource
	sinks   []Sink
	events  []Event
	dropped int64
	seq     int64
	nextSrc int64

	// emitMu serializes sample construction (the ticker goroutine,
	// Stop's final sample, and test-driven Emit calls), protecting the
	// rate-tracking state below.
	emitMu sync.Mutex
	prev   map[string]int64
	prevT  time.Time

	last atomic.Pointer[Sample]

	stop chan struct{}
	wg   sync.WaitGroup
}

type progressSource struct {
	id int64
	fn func(*Sample)
}

// Event is one discrete occurrence worth timestamping between samples
// — an incumbent improvement in the optimum search, a completed
// adversary block. Events are buffered (bounded) and drained into the
// next Sample.
type Event struct {
	TMS    float64        `json:"t_ms"` // milliseconds since the run started
	Name   string         `json:"name"`
	Fields map[string]any `json:"fields,omitempty"`
}

// Sample is one progress snapshot: what every sink sees and what a
// heartbeat journal record (type RecHeartbeat) serializes to. Seq
// counts this run's heartbeats only, so a gap in a journal's trail
// means a missed beat.
type Sample struct {
	Header
	Seq       int64          `json:"seq"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Frac      float64        `json:"frac,omitempty"`   // completion fraction of the dominant phase (omitted at 0)
	EtaMS     float64        `json:"eta_ms,omitempty"` // elapsed·(1−frac)/frac, the prefix-completion-rate ETA
	Fields    map[string]any `json:"fields,omitempty"`
	Events    []Event        `json:"events,omitempty"`
	Final     bool           `json:"final,omitempty"` // emitted by Stop: the run ended in an orderly way

	counters []string // field keys registered via Counter, for rate derivation
	fracSet  bool
}

// Field records one key/value in the sample.
func (s *Sample) Field(key string, v any) {
	if s.Fields == nil {
		s.Fields = map[string]any{}
	}
	s.Fields[key] = v
}

// Counter records a monotonically increasing value; the engine derives
// a "<key>_per_s" rate field from the previous sample.
func (s *Sample) Counter(key string, v int64) {
	s.Field(key, v)
	s.counters = append(s.counters, key)
}

// SetFraction records the completion fraction done/total. The first
// source to set it owns the sample's ETA — sources run in registration
// order, so the outermost phase (the sweep, not the cell) wins.
func (s *Sample) SetFraction(done, total float64) {
	if s.fracSet || total <= 0 {
		return
	}
	f := done / total
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	s.Frac = f
	s.fracSet = true
}

// Sink receives samples. Emit is called from the sampling goroutine
// only, so sinks need no internal locking; Close is called once by
// Stop after the final sample.
type Sink interface {
	Emit(s *Sample)
	Close()
}

// NewProgress creates a progress engine for the named command.
// interval <= 0 selects the 1 s default; run tags every sample with
// the run-journal correlation ID (may be empty). The engine is inert
// until Start.
func NewProgress(cmd, run string, interval time.Duration) *Progress {
	if interval <= 0 {
		interval = time.Second
	}
	return &Progress{
		cmd:      cmd,
		run:      run,
		interval: interval,
		start:    time.Now(),
		prev:     map[string]int64{},
	}
}

// Enabled reports whether the engine is running: the one-atomic-load
// probe hot loops use to skip event construction entirely. Nil-safe.
func (p *Progress) Enabled() bool {
	return p != nil && p.on.Load()
}

// Register adds a source polled at every sample and returns its
// unregister function (call it when the instrumented phase ends — a
// source must not outlive the state it reads). Nil-safe: a nil
// receiver returns a no-op unregister.
func (p *Progress) Register(fn func(*Sample)) (unregister func()) {
	if p == nil {
		return func() {}
	}
	p.mu.Lock()
	p.nextSrc++
	id := p.nextSrc
	p.sources = append(p.sources, progressSource{id: id, fn: fn})
	p.mu.Unlock()
	return func() {
		p.mu.Lock()
		for i, src := range p.sources {
			if src.id == id {
				p.sources = append(p.sources[:i], p.sources[i+1:]...)
				break
			}
		}
		p.mu.Unlock()
	}
}

// AddSink attaches a sink. Add sinks before Start.
func (p *Progress) AddSink(s Sink) {
	if p == nil || s == nil {
		return
	}
	p.mu.Lock()
	p.sinks = append(p.sinks, s)
	p.mu.Unlock()
}

// maxPendingEvents bounds the event buffer between samples; overflow
// is counted and reported as an "events_dropped" field rather than
// silently discarded.
const maxPendingEvents = 128

// Event records a timestamped occurrence for the next sample. Nil-safe
// and disabled-safe: when the engine is not running this is one atomic
// load and returns — guard expensive field-map construction with
// Enabled() at the call site.
func (p *Progress) Event(name string, fields map[string]any) {
	if p == nil || !p.on.Load() {
		return
	}
	ev := Event{TMS: float64(time.Since(p.start)) / float64(time.Millisecond), Name: name, Fields: fields}
	p.mu.Lock()
	if len(p.events) < maxPendingEvents {
		p.events = append(p.events, ev)
	} else {
		p.dropped++
	}
	p.mu.Unlock()
}

// Start begins sampling: an immediate first sample (so even a run
// killed before one interval leaves a heartbeat), then one per
// interval. Idempotent; nil-safe.
func (p *Progress) Start() {
	if p == nil || p.on.Swap(true) {
		return
	}
	p.emitMu.Lock()
	p.prevT = p.start
	p.emitMu.Unlock()
	p.stop = make(chan struct{})
	publishProgressExpvar()
	progressTrack(p, true)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		p.Emit()
		t := time.NewTicker(p.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.Emit()
			case <-p.stop:
				return
			}
		}
	}()
}

// Stop halts sampling, emits one final sample (marked Final) so the
// last heartbeat reflects the end state, and closes the sinks.
// Idempotent; nil-safe.
func (p *Progress) Stop() {
	if p == nil || !p.on.Swap(false) {
		return
	}
	close(p.stop)
	p.wg.Wait()
	p.emit(true)
	progressTrack(p, false)
	p.mu.Lock()
	sinks := p.sinks
	p.sinks = nil
	p.mu.Unlock()
	for _, s := range sinks {
		s.Close()
	}
}

// Last returns the most recent sample (nil before the first). What
// /debug/progress serves.
func (p *Progress) Last() *Sample {
	if p == nil {
		return nil
	}
	return p.last.Load()
}

// Emit takes one sample immediately, outside the ticker cadence —
// used by tests and by Stop for the final sample. Safe to call
// concurrently with the ticker.
func (p *Progress) Emit() {
	if p == nil {
		return
	}
	p.emit(false)
}

func (p *Progress) emit(final bool) {
	p.emitMu.Lock()
	defer p.emitMu.Unlock()

	now := time.Now()
	s := &Sample{
		Header: Header{
			Type: RecHeartbeat,
			Run:  p.run,
			Cmd:  p.cmd,
			Time: now.UTC().Format(time.RFC3339Nano),
		},
		ElapsedMS: float64(now.Sub(p.start)) / float64(time.Millisecond),
		Final:     final,
	}

	p.mu.Lock()
	s.Seq = p.seq
	p.seq++
	sources := make([]progressSource, len(p.sources))
	copy(sources, p.sources)
	sinks := make([]Sink, len(p.sinks))
	copy(sinks, p.sinks)
	s.Events = p.events
	p.events = nil
	if p.dropped > 0 {
		s.Field("events_dropped", p.dropped)
		p.dropped = 0
	}
	p.mu.Unlock()

	for _, src := range sources {
		src.fn(s)
	}

	// Derive per-second rates for Counter-marked fields from the
	// previous sample; the first sample rates against the run start,
	// i.e. reports the average so far.
	if dt := now.Sub(p.prevT).Seconds(); dt > 0 {
		for _, k := range s.counters {
			v, ok := s.Fields[k].(int64)
			if !ok {
				continue
			}
			prevV, seen := p.prev[k]
			if !seen && s.Seq > 0 {
				// The counter first appeared mid-run (e.g. it is only
				// folded in at a phase boundary): its accumulation
				// window is unknown, so rating it against this
				// interval would be nonsense. Start from next sample.
				p.prev[k] = v
				continue
			}
			rate := float64(v-prevV) / dt
			if rate < 0 {
				rate = 0 // a phase restarted its counter; don't report nonsense
			}
			s.Fields[k+"_per_s"] = math.Round(rate)
			p.prev[k] = v
		}
	}
	p.prevT = now

	if s.fracSet && s.Frac > 0 {
		s.EtaMS = s.ElapsedMS * (1 - s.Frac) / s.Frac
	}

	p.last.Store(s)
	for _, sink := range sinks {
		sink.Emit(s)
	}
}

// ---- sinks ----

// StatusSink renders each sample as a single stderr/TTY status line:
// carriage-return rewriting on a terminal, one full line per sample on
// a pipe (CI logs). Close terminates the line so subsequent output
// starts clean.
type StatusSink struct {
	w     io.Writer
	tty   bool
	width int // last rendered width, for clearing on TTYs
}

// NewStatusSink builds a status-line sink for w, detecting whether w
// is a terminal (os.File character device).
func NewStatusSink(w io.Writer) *StatusSink {
	tty := false
	if f, ok := w.(*os.File); ok {
		if st, err := f.Stat(); err == nil && st.Mode()&os.ModeCharDevice != 0 {
			tty = true
		}
	}
	return &StatusSink{w: w, tty: tty}
}

// Emit renders the sample.
func (ss *StatusSink) Emit(s *Sample) {
	line := renderStatus(s)
	if !ss.tty {
		fmt.Fprintln(ss.w, line)
		return
	}
	pad := ""
	if n := ss.width - len(line); n > 0 {
		pad = strings.Repeat(" ", n)
	}
	fmt.Fprintf(ss.w, "\r%s%s", line, pad)
	ss.width = len(line)
}

// Close finishes the status line.
func (ss *StatusSink) Close() {
	if ss.tty && ss.width > 0 {
		fmt.Fprintln(ss.w)
	}
}

// statusWidth caps the rendered status line; busy registries would
// otherwise wrap the terminal and defeat the \r rewrite.
const statusWidth = 160

// renderStatus formats one sample as a compact single line:
// elapsed, percent + ETA when known, then sorted fields (humanized),
// truncated to statusWidth.
func renderStatus(s *Sample) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %s", s.Cmd, fmtDuration(s.ElapsedMS))
	if s.fracSet || s.Frac > 0 {
		fmt.Fprintf(&sb, " %2.0f%%", s.Frac*100)
		if s.EtaMS > 0 {
			fmt.Fprintf(&sb, " eta %s", fmtDuration(s.EtaMS))
		}
	}
	keys := make([]string, 0, len(s.Fields))
	for k := range s.Fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		frag := " " + statusKey(k) + "=" + humanAny(s.Fields[k])
		if sb.Len()+len(frag) > statusWidth {
			sb.WriteString(" …")
			break
		}
		sb.WriteString(frag)
	}
	if len(s.Events) > 0 {
		fmt.Fprintf(&sb, " [%d events]", len(s.Events))
	}
	return sb.String()
}

// statusKey shortens dotted metric names for the one-line rendering:
// the last two segments carry the meaning ("core.optimal.memo.hits" →
// "memo.hits").
func statusKey(k string) string {
	parts := strings.Split(k, ".")
	if len(parts) > 2 {
		return strings.Join(parts[len(parts)-2:], ".")
	}
	return k
}

// fmtDuration renders milliseconds as a compact duration (1.2s, 3m05s).
func fmtDuration(ms float64) string {
	d := time.Duration(ms * float64(time.Millisecond))
	switch {
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	case d < time.Minute:
		return fmt.Sprintf("%.1fs", d.Seconds())
	case d < time.Hour:
		return fmt.Sprintf("%dm%02ds", int(d.Minutes()), int(d.Seconds())%60)
	default:
		return fmt.Sprintf("%dh%02dm", int(d.Hours()), int(d.Minutes())%60)
	}
}

// humanAny renders a field value compactly (large numbers humanized).
func humanAny(v any) string {
	switch x := v.(type) {
	case int64:
		return humanCount(float64(x))
	case int:
		return humanCount(float64(x))
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			return humanCount(x)
		}
		return fmt.Sprintf("%.3g", x)
	default:
		return fmt.Sprintf("%v", v)
	}
}

// humanCount renders a count with k/M/G suffixes.
func humanCount(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case av >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case av >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// journalSink appends each sample as one heartbeat line to the run
// journal, synced with the line — the whole point is that a killed or
// OOM'd run leaves a resumable trace trail instead of nothing.
type journalSink struct{ j *Journal }

// JournalSink builds a heartbeat sink over j (nil journal → nil sink,
// which AddSink ignores).
func JournalSink(j *Journal) Sink {
	if j == nil {
		return nil
	}
	return journalSink{j: j}
}

func (js journalSink) Emit(s *Sample) {
	// Write fills empty header fields in place; the copy keeps the
	// sample other sinks and /debug/progress share unchanged.
	c := *s
	if err := js.j.Write(&c); err != nil {
		fmt.Fprintf(os.Stderr, "obs: heartbeat: %v\n", err)
	}
}

// Close leaves the journal open: the CLI's final entry still has to go
// through it.
func (js journalSink) Close() {}

// funcSink adapts a function to the Sink interface (tests, custom fanout).
type funcSink func(*Sample)

// SinkFunc wraps fn as a Sink with a no-op Close.
func SinkFunc(fn func(*Sample)) Sink { return funcSink(fn) }

func (f funcSink) Emit(s *Sample) { f(s) }
func (f funcSink) Close()         {}

// ---- /debug/progress + expvar ----

var (
	progMu     sync.Mutex
	progActive []*Progress
	progOnce   sync.Once
)

func progressTrack(p *Progress, add bool) {
	progMu.Lock()
	defer progMu.Unlock()
	if add {
		progActive = append(progActive, p)
		return
	}
	for i, q := range progActive {
		if q == p {
			progActive = append(progActive[:i], progActive[i+1:]...)
			return
		}
	}
}

// progressSamples snapshots the latest sample of every active engine.
func progressSamples() []*Sample {
	progMu.Lock()
	defer progMu.Unlock()
	out := make([]*Sample, 0, len(progActive))
	for _, p := range progActive {
		if s := p.last.Load(); s != nil {
			out = append(out, s)
		}
	}
	return out
}

// ProgressHandler returns the /debug/progress handler: the latest
// sample of every active engine as indented JSON. The handler is a
// plain value the caller mounts on a mux of its choosing — nothing is
// ever registered on http.DefaultServeMux, so any number of Progress
// engines and any number of HTTP servers can coexist in one process
// (the old global http.HandleFunc registration leaked the route onto
// whatever server used the default mux, and a second registration
// would have been a duplicate-pattern panic). ServeDebug mounts it for
// the CLIs' -pprof flag; a daemon mounts it on its own mux.
func ProgressHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeJSONIndent(w, progressSamples())
	})
}

// publishProgressExpvar publishes the live samples as the
// "shufflenet.progress" expvar. At most once per process — the expvar
// namespace is global by design, so this stays Once-guarded.
func publishProgressExpvar() {
	progOnce.Do(func() {
		expvar.Publish("shufflenet.progress", expvar.Func(func() any { return progressSamples() }))
	})
}

// writeJSONIndent encodes v as indented JSON; errors go to stderr
// (the endpoint has no better channel once the header is out).
func writeJSONIndent(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(os.Stderr, "obs: /debug/progress: %v\n", err)
	}
}
