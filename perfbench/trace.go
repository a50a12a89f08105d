package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval, recorded by the benchmark around a call
// into one layer. Spans of one request or operation share Req; Parent
// is 0 for a root span. Times are nanoseconds since the recorder
// started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs share the traced code.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records one span and returns its id (0 on a nil recorder).
func (r *recorder) add(parent, req int64, name, layer string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Req: req, Name: name, Layer: layer,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
	return id
}

// close sets the end of span id, for a parent added before its
// children ran.
func (r *recorder) close(id int64, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].End = end.Sub(r.t0).Nanoseconds()
	r.mu.Unlock()
}

// timed runs f and records it as a span.
func (r *recorder) timed(parent, req int64, name, layer string, f func()) {
	start := time.Now()
	f()
	r.add(parent, req, name, layer, start, time.Now())
}

// durations returns the durations of the spans named name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// medianUS is the median duration of the spans named name, in µs (0
// when there are none).
func (r *recorder) medianUS(name string) float64 {
	ds := r.durations(name)
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	return median(xs)
}

// sumOf totals the durations of the spans whose name is in names.
func (r *recorder) sumOf(names ...string) time.Duration {
	var t time.Duration
	for _, n := range names {
		for _, d := range r.durations(n) {
			t += d
		}
	}
	return t
}

// layerTime is one row of the self-time summary.
type layerTime struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"`
	Spans  int     `json:"spans"`
}

// selfTimes sums each layer's self time — a span's duration minus the
// durations of its children — largest first.
func (r *recorder) selfTimes() []layerTime {
	child := make(map[int64]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	count := map[string]int{}
	var total int64
	for _, s := range r.spans {
		d := s.End - s.Start - child[s.ID]
		self[s.Layer] += d
		count[s.Layer]++
		total += d
	}
	out := make([]layerTime, 0, len(self))
	for l, d := range self {
		out = append(out, layerTime{Layer: l, SelfMS: float64(d) / 1e6, Share: ratio(float64(d), float64(total)), Spans: count[l]})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// finish writes the spans as JSONL and the self-time table as text
// under cfg.out, and adds both paths and the table to notes.
func (r *recorder) finish(cfg config, notes map[string]any) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	f, err := os.Create(stem + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	layers := r.selfTimes()
	b := fmt.Appendf(nil, "%-20s %12s %7s %8s\n", "layer", "self_ms", "share", "spans")
	for _, l := range layers {
		b = fmt.Appendf(b, "%-20s %12.3f %7.3f %8d\n", l.Layer, l.SelfMS, l.Share, l.Spans)
	}
	if err := os.WriteFile(stem+".layers.txt", b, 0o644); err != nil {
		return err
	}
	notes["span_file"] = stem + ".spans.jsonl"
	notes["layer_file"] = stem + ".layers.txt"
	notes["spans"] = len(r.spans)
	notes["self_time"] = layers
	return nil
}

// overheadPct is the tracing overhead: traced minus untraced, as a
// percentage of untraced.
func overheadPct(traced, plain float64) float64 {
	return 100 * ratio(traced-plain, plain)
}
