package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values must be
// JSON-marshalable for the journal (Entry.AddSpans); fmt verbs render
// them in the tree.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// A constructs an Attr.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

// Span times one named phase of a computation. Spans nest: Child
// starts a sub-span, and End records the duration. A nil *Span is
// inert (Child returns nil, End is a no-op), so callers can thread an
// optional span through APIs without conditionals.
//
// A span tree is rendered with WriteTree (indented text) or journaled
// with Entry.AddSpans (one record per span, depth-first). Child and
// End are safe for concurrent use on the same parent, matching the
// parallel phases in core and par.
type Span struct {
	name  string
	attrs []Attr
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	children []*Span
}

// NewSpan starts a root span.
func NewSpan(name string, attrs ...Attr) *Span {
	return &Span{name: name, attrs: attrs, start: time.Now()}
}

// Child starts a sub-span. Nil-safe: a nil receiver returns nil, so an
// entire instrumentation tree collapses to no-ops when tracing is off.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	c := NewSpan(name, attrs...)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr appends an annotation (typically a result computed during
// the span, e.g. a surviving-set size).
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End fixes the span's duration (first call wins; later calls are
// no-ops). It returns s for defer chaining.
func (s *Span) End() *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	s.mu.Unlock()
	return s
}

// Name returns the span name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the recorded duration; for a still-open span it
// returns the time elapsed so far.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.dur
}

// Children returns the direct sub-spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// WriteTree renders the span and its descendants as an indented trace
// tree:
//
//	experiments                          152ms
//	  E2                                  41ms  n=256
//	    lemma41                           39ms
func (s *Span) WriteTree(w io.Writer) error {
	if s == nil {
		return nil
	}
	var sb strings.Builder
	s.writeTree(&sb, 0)
	_, err := io.WriteString(w, sb.String())
	return err
}

func (s *Span) writeTree(sb *strings.Builder, depth int) {
	s.mu.Lock()
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
	}
	attrs := append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(sb, "%-40s %10s", indent+s.name, dur.Round(time.Microsecond))
	for _, a := range attrs {
		fmt.Fprintf(sb, "  %s=%v", a.Key, a.Value)
	}
	sb.WriteByte('\n')
	for _, c := range children {
		c.writeTree(sb, depth+1)
	}
}

// spanRecord is the journal form of one span.
type spanRecord struct {
	Path  string  `json:"path"` // slash-joined names from the root
	Depth int     `json:"depth"`
	MS    float64 `json:"ms"`
	Attrs []Attr  `json:"attrs,omitempty"`
}

// records flattens the tree into journal-friendly structs (used by
// Entry.AddSpans).
func (s *Span) records(prefix string, depth int, out []spanRecord) []spanRecord {
	if s == nil {
		return out
	}
	s.mu.Lock()
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
	}
	attrs := append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	path := s.name
	if prefix != "" {
		path = prefix + "/" + s.name
	}
	out = append(out, spanRecord{Path: path, Depth: depth, MS: float64(dur) / float64(time.Millisecond), Attrs: attrs})
	for _, c := range children {
		out = c.records(path, depth+1, out)
	}
	return out
}
