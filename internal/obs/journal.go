package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"time"
)

// Header is the part every journal line shares, whatever its record
// type: the type tag, the run that wrote it, that run's command, and
// when. Every record type embeds it (Entry, Sample, serve's request
// lines, coord's frontier records), so one reader can route any line
// and one writer can stamp it. Journals written before Type existed
// hold untyped run entries; ReadJournal reads those as RecRun.
type Header struct {
	Type string `json:"type,omitempty"`
	// Run correlates the records one invocation wrote — its entry,
	// heartbeats, frontier checkpoints and request lines: a trail with
	// no matching entry is the signature of a killed/OOM'd run.
	Run  string `json:"run,omitempty"`
	Cmd  string `json:"cmd,omitempty"`
	Time string `json:"time,omitempty"`
}

func (h *Header) header() *Header { return h }

// Record is a journal record: a pointer to any struct that embeds
// Header.
type Record interface{ header() *Header }

// Type tags of the records this package writes.
const (
	RecRun       = "run"
	RecHeartbeat = "heartbeat"
)

// Entry is one run-journal record: everything needed to reproduce and
// audit a CLI or experiment invocation. Marshaled as a single JSON
// object (one line in the journal). Its Time is the start of the run.
type Entry struct {
	Header
	Args      []string `json:"args"`
	Seed      int64    `json:"seed,omitempty"`
	GoVersion string   `json:"go_version"`
	OS        string   `json:"os"`
	Arch      string   `json:"arch"`
	Git       string   `json:"git,omitempty"` // git describe --always --dirty
	MaxProcs  int      `json:"maxprocs"`

	WallMS float64 `json:"wall_ms"`
	CPUMS  float64 `json:"cpu_ms,omitempty"` // user+system, rusage (0 where unsupported)

	Mem struct {
		HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
		TotalAllocBytes uint64 `json:"total_alloc_bytes"`
		SysBytes        uint64 `json:"sys_bytes"`
		NumGC           uint32 `json:"num_gc"`
		MaxRSSKB        int64  `json:"max_rss_kb,omitempty"` // rusage peak (0 where unsupported)
	} `json:"mem"`

	// Interrupted / TimedOut record why a run was cut short: a
	// SIGINT/SIGTERM or the -timeout deadline. Partial then carries the
	// progress fields from the engines' *par.ErrCanceled (via
	// ErrCanceled.Fields), so a truncated run still journals how far it
	// got.
	Interrupted bool           `json:"interrupted,omitempty"`
	TimedOut    bool           `json:"timed_out,omitempty"`
	Partial     map[string]any `json:"partial,omitempty"`

	Metrics map[string]any `json:"metrics,omitempty"`
	Spans   []spanRecord   `json:"spans,omitempty"`
	Extra   map[string]any `json:"extra,omitempty"`

	start time.Time
}

// NewEntry starts a journal entry for the named command, capturing the
// start time, the process arguments, toolchain/platform identity, and
// the repository's git-describe (best effort; empty when git or the
// repo is unavailable).
func NewEntry(cmd string) *Entry {
	now := time.Now()
	e := &Entry{
		Header: Header{
			Type: RecRun,
			Run:  fmt.Sprintf("%s-%d-%x", cmd, os.Getpid(), now.UnixNano()),
			Cmd:  cmd,
			Time: now.UTC().Format(time.RFC3339),
		},
		Args:      append([]string(nil), os.Args[1:]...),
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		Git:       gitDescribe(),
		MaxProcs:  runtime.GOMAXPROCS(0),
		Extra:     map[string]any{},
		start:     now,
	}
	return e
}

// Set records an arbitrary extra field (per-command payload such as
// the adversary's per-block reports).
func (e *Entry) Set(key string, value any) {
	if e == nil {
		return
	}
	e.Extra[key] = value
}

// SetPartial records the partial-progress fields of a canceled run
// (typically par.ErrCanceled.Fields()); they land in the entry's
// "partial" key next to the timed_out/interrupted markers.
func (e *Entry) SetPartial(fields map[string]any) {
	if e == nil {
		return
	}
	e.Partial = fields
}

// AddSpans attaches a span tree (flattened depth-first) to the entry.
func (e *Entry) AddSpans(root *Span) {
	if e == nil || root == nil {
		return
	}
	e.Spans = root.records("", 0, e.Spans)
}

// Finish stamps the entry with wall/CPU time, memory statistics, and a
// snapshot of every metric in reg (nil skips the snapshot). Idempotent
// enough for the interrupt path: a second call refreshes the readings.
func (e *Entry) Finish(reg *Registry) {
	if e == nil {
		return
	}
	e.WallMS = float64(time.Since(e.start)) / float64(time.Millisecond)
	e.CPUMS = cpuMillis()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.Mem.HeapAllocBytes = ms.HeapAlloc
	e.Mem.TotalAllocBytes = ms.TotalAlloc
	e.Mem.SysBytes = ms.Sys
	e.Mem.NumGC = ms.NumGC
	e.Mem.MaxRSSKB = maxRSSKB()
	if reg != nil {
		e.Metrics = reg.Snapshot()
	}
}

// gitDescribe returns `git describe --always --dirty --tags` for the
// current directory, or "" if git is unavailable, slow, or this is not
// a work tree.
func gitDescribe() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Journal appends one JSON object per line to a file. Writes are
// mutex-guarded and flushed with the line, so an entry written from a
// signal handler survives the subsequent exit. A nil *Journal is
// inert.
type Journal struct {
	mu sync.Mutex
	f  *os.File
	// def holds the run and cmd stamped on records that leave them
	// empty; StartCLI sets it to its entry's.
	def Header
}

// OpenJournal opens (creating if needed) the journal at path in append
// mode. An empty path returns (nil, nil): the nil journal is a no-op,
// so CLIs can pass their -journal flag through unconditionally.
//
// A file that does not end in a newline ends in the torn record of a
// writer killed mid-line. OpenJournal cuts those bytes (they are no
// record) before appending, so this run's first line starts a line of
// its own instead of turning the fragment into a corrupt middle line.
func OpenJournal(path string) (*Journal, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := cutTornTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal %s: %w", path, err)
	}
	return &Journal{f: f}, nil
}

// cutTornTail truncates f after its last newline.
func cutTornTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	end := st.Size()
	buf := make([]byte, 4096)
	off := end
	for off > 0 {
		n := min(off, int64(len(buf)))
		off -= n
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			off += int64(i) + 1
			break
		}
	}
	if off == end {
		return nil
	}
	return f.Truncate(off)
}

// Write appends rec as one JSON line and syncs the file: a record that
// was written survives a kill -9 one line later. Header fields rec
// leaves empty are filled in on rec first — run and cmd from the CLI
// run that opened the journal, time from the clock.
func (j *Journal) Write(rec Record) error {
	if j == nil {
		return nil
	}
	h := rec.header()
	if h.Run == "" {
		h.Run = j.def.Run
	}
	if h.Cmd == "" {
		h.Cmd = j.def.Cmd
	}
	if h.Time == "" {
		h.Time = time.Now().UTC().Format(time.RFC3339Nano)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	return j.f.Sync()
}

// maxJournalLine bounds one journal line; a longer one is an error.
const maxJournalLine = 16 << 20

// ReadJournal reads a JSONL journal and calls fn once per record, in
// order, with the record's header and its line. fn decodes the line
// into the writer's own type; the bytes are valid only until fn
// returns. A line with no type is a run entry (RecRun). Blank lines
// are skipped. A line that does not parse is the torn tail of a killed
// writer when it is the last record, and is reported as torn; followed
// by more records it is corruption, and an error. An error from fn
// stops the read and comes back with the line number.
func ReadJournal(r io.Reader, fn func(h Header, line []byte) error) (torn bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxJournalLine)
	n, tornAt := 0, 0
	for sc.Scan() {
		n++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if tornAt > 0 {
			return false, fmt.Errorf("line %d: unparseable record followed by more records (corrupt journal, not a torn tail)", tornAt)
		}
		var h Header
		if json.Unmarshal(line, &h) != nil {
			tornAt = n
			continue
		}
		if h.Type == "" {
			h.Type = RecRun
		}
		if err := fn(h, line); err != nil {
			return false, fmt.Errorf("line %d: %w", n, err)
		}
	}
	if err := sc.Err(); err != nil {
		return false, err
	}
	return tornAt > 0, nil
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
