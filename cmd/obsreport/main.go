// Command obsreport turns run journals (JSONL, written by the CLIs'
// and the daemon's -journal flag) into human-readable reports:
//
//   - Per-run summaries: one block per invocation found in the
//     journals, with wall/CPU time, peak memory, seed, the heartbeat
//     trail the run left while -progress was on, its frontier
//     checkpoints, and — for the daemon — its request count.
//   - Killed-run detection: records whose run ID has no final journal
//     entry are reported as INCOMPLETE with the last heartbeat's
//     counters — the honest partial progress of a run that was killed
//     or OOM'd mid-flight. A journal whose last line is torn (its
//     writer died mid-record) is still reported, with a note.
//   - Run-over-run deltas: consecutive completed runs of the same
//     command and arguments are compared (wall time, peak RSS), so a
//     slowdown across a code change shows up without a profiler.
//
// Every line is decoded into the Go type that wrote it (obs.Entry,
// obs.Sample, serve.RequestRecord, coord's frontier records), framed
// by obs.ReadJournal. Benchmark snapshots are cmd/benchjson's (-table).
//
// Usage:
//
//	obsreport run.jsonl [more.jsonl ...]
//	obsreport -require-heartbeats run.jsonl        # CI smoke: fail unless heartbeats present
//
// Exit status: 0 normally; 1 on an unreadable or corrupt journal or
// when -require-heartbeats finds no heartbeat records.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"

	"shufflenet/internal/coord"
	"shufflenet/internal/obs"
	"shufflenet/internal/serve"
)

func main() {
	requireHB := flag.Bool("require-heartbeats", false, "exit 1 unless at least one heartbeat record is present (CI smoke for -progress)")
	flag.Parse()

	if flag.NArg() == 0 {
		fail("no journal files given; see -h")
	}
	var js Journals
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fail(err.Error())
		}
		err = js.Read(path, f)
		f.Close()
		if err != nil {
			fail(fmt.Sprintf("%s: %v", path, err))
		}
	}
	js.WriteReport(os.Stdout)
	if *requireHB {
		beats := 0
		for _, r := range js.Runs {
			beats += r.Beats
		}
		if beats == 0 {
			fail("-require-heartbeats: no heartbeat records found (was the run started with -progress and -journal?)")
		}
		fmt.Printf("heartbeats: %d records across %d run(s)\n", beats, len(js.Runs))
	}
}

// Run is one invocation reconstructed from the journals: its entry
// (nil when the process died before writing one), its heartbeat trail,
// its frontier checkpoints and its request lines, in journal order.
// The run with an empty ID collects request lines from journals
// written before those lines named their run.
type Run struct {
	ID    string
	Cmd   string
	Entry *obs.Entry

	Beats    int   // heartbeat records
	FirstSeq int64 // seq of the first heartbeat
	LastBeat *obs.Sample

	// Frontier-checkpoint trail (resumable optimum search).
	Init       *coord.FrontierInit // when present
	Resumed    *coord.Resumed      // when present
	DonePrefix int                 // count of prefix_done records
	LastSeq    int                 // highest frontier record seq

	Requests, FailedRequests int // daemon request lines; failed = non-200
}

// Complete reports whether the run wrote its final entry.
func (r *Run) Complete() bool { return r.Entry != nil }

// Journals is the runs read from one or more journals, correlated by
// run ID and kept in journal order.
type Journals struct {
	Runs []*Run
	Torn []string // journals whose last line was torn

	index   map[string]*Run
	records int
}

// Read adds the records of one journal, named name in the report.
func (js *Journals) Read(name string, r io.Reader) error {
	torn, err := obs.ReadJournal(r, js.add)
	if torn {
		js.Torn = append(js.Torn, name)
	}
	return err
}

func decode[T any](line []byte) (*T, error) {
	v := new(T)
	return v, json.Unmarshal(line, v)
}

func (js *Journals) add(h obs.Header, line []byte) error {
	js.records++
	id := h.Run
	if id == "" && h.Type == obs.RecRun {
		// An entry from a journal predating run IDs is a whole run.
		id = fmt.Sprintf("(pre-heartbeat journal, record %d)", js.records)
	}
	r := js.index[id]
	if r == nil {
		if js.index == nil {
			js.index = map[string]*Run{}
		}
		r = &Run{ID: id}
		js.index[id] = r
		js.Runs = append(js.Runs, r)
	}
	if r.Cmd == "" {
		r.Cmd = h.Cmd
	}
	var err error
	switch h.Type {
	case obs.RecRun:
		r.Entry, err = decode[obs.Entry](line)
	case obs.RecHeartbeat:
		var s *obs.Sample
		if s, err = decode[obs.Sample](line); err == nil {
			if r.Beats == 0 {
				r.FirstSeq = s.Seq
			}
			r.Beats++
			r.LastBeat = s
		}
	case coord.RecFrontierInit:
		if r.Init, err = decode[coord.FrontierInit](line); err == nil {
			r.LastSeq = max(r.LastSeq, r.Init.Seq)
		}
	case coord.RecPrefixDone:
		var rec *coord.PrefixDone
		if rec, err = decode[coord.PrefixDone](line); err == nil {
			r.DonePrefix++
			r.LastSeq = max(r.LastSeq, rec.Seq)
		}
	case coord.RecResumed:
		if r.Resumed, err = decode[coord.Resumed](line); err == nil {
			r.LastSeq = max(r.LastSeq, r.Resumed.Seq)
		}
	case serve.RecRequest:
		var rec *serve.RequestRecord
		if rec, err = decode[serve.RequestRecord](line); err == nil {
			r.Requests++
			if rec.Status != http.StatusOK {
				r.FailedRequests++
			}
		}
	}
	return err
}

// WriteReport renders per-run summaries, run-over-run deltas, and a
// note per torn journal.
func (js *Journals) WriteReport(w io.Writer) {
	// prev maps cmd+args → the previous completed run, for deltas.
	prev := map[string]*obs.Entry{}
	runs, complete := 0, 0
	for _, r := range js.Runs {
		if r.ID == "" {
			fmt.Fprintf(w, "records with no run ID (request lines from a journal that predates them)\n")
			fmt.Fprintf(w, "  requests %d (%d failed)\n\n", r.Requests, r.FailedRequests)
			continue
		}
		runs++
		status := "completed"
		failed := false
		switch {
		case !r.Complete():
			status = "INCOMPLETE (records with no final entry — killed or OOM'd)"
		case r.Entry.Interrupted:
			status = "interrupted"
		case r.Entry.TimedOut:
			status = "timed out"
		default:
			// A CLI fail() flushes an orderly entry with the error
			// message under extra.error — that run completed its
			// teardown but not its work.
			if msg, ok := r.Entry.Extra["error"].(string); ok && msg != "" {
				status = "failed: " + msg
				failed = true
			}
		}
		if r.Complete() {
			complete++
		}
		fmt.Fprintf(w, "run %s\n", r.ID)
		fmt.Fprintf(w, "  cmd %s  status %s\n", r.Cmd, status)
		if e := r.Entry; e != nil {
			fmt.Fprintf(w, "  started %s  args %s\n", e.Time, strings.Join(e.Args, " "))
			fmt.Fprintf(w, "  wall %s  cpu %s  peak rss %s  seed %d\n",
				fmtMS(e.WallMS), fmtMS(e.CPUMS), fmtKB(e.Mem.MaxRSSKB), e.Seed)
			if len(e.Partial) > 0 {
				fmt.Fprintf(w, "  partial progress: %s\n", fmtFields(e.Partial))
			}
			key := r.Cmd + " " + strings.Join(e.Args, " ")
			if p := prev[key]; p != nil && p.WallMS > 0 {
				fmt.Fprintf(w, "  vs previous identical run: wall %+.1f%%, peak rss %+.1f%%\n",
					(e.WallMS/p.WallMS-1)*100, pctDelta(e.Mem.MaxRSSKB, p.Mem.MaxRSSKB))
			}
			if !e.Interrupted && !e.TimedOut && !failed {
				prev[key] = e
			}
		}
		if r.Requests > 0 {
			fmt.Fprintf(w, "  requests %d (%d failed)\n", r.Requests, r.FailedRequests)
		}
		if r.Resumed != nil {
			fmt.Fprintf(w, "  resumed from seq %d, %d/%d prefixes skipped (from %s)\n",
				r.Resumed.FromSeq, r.Resumed.Skipped, r.Resumed.Prefixes, r.Resumed.From)
		}
		if r.Init != nil || r.DonePrefix > 0 {
			line := fmt.Sprintf("  frontier checkpoints: %d", r.DonePrefix)
			if r.Init != nil {
				line += fmt.Sprintf("/%d prefixes done (net %s)", r.Init.Prefixes, shortNet(r.Init.Net))
			} else {
				line += " prefixes done (no frontier_init in these journals)"
			}
			line += fmt.Sprintf(", last seq %d", r.LastSeq)
			fmt.Fprintln(w, line)
		}
		if last := r.LastBeat; last != nil {
			fmt.Fprintf(w, "  heartbeats %d (seq %d..%d)\n", r.Beats, r.FirstSeq, last.Seq)
			line := fmt.Sprintf("  last heartbeat: +%s", fmtMS(last.ElapsedMS))
			if last.Frac > 0 {
				line += fmt.Sprintf("  %.1f%% done", last.Frac*100)
			}
			if last.EtaMS > 0 && !last.Final {
				line += fmt.Sprintf("  eta %s", fmtMS(last.EtaMS))
			}
			if len(last.Fields) > 0 {
				line += "  " + fmtFields(last.Fields)
			}
			fmt.Fprintln(w, line)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%d run(s): %d completed, %d incomplete\n", runs, complete, runs-complete)
	for _, name := range js.Torn {
		fmt.Fprintf(w, "note: %s ends in a torn line (its writer died mid-record); the fragment was skipped\n", name)
	}
}

// shortNet abbreviates a 32-hex-digit network fingerprint for display.
func shortNet(fp string) string {
	if len(fp) > 12 {
		return fp[:12] + "…"
	}
	return fp
}

// fmtMS renders a millisecond quantity compactly (1.2s, 450ms, 2m3s).
func fmtMS(ms float64) string {
	switch {
	case ms <= 0:
		return "0"
	case ms < 1000:
		return fmt.Sprintf("%.0fms", ms)
	case ms < 60_000:
		return fmt.Sprintf("%.1fs", ms/1000)
	default:
		m := int(ms / 60_000)
		return fmt.Sprintf("%dm%.0fs", m, ms/1000-float64(m)*60)
	}
}

func fmtKB(kb int64) string {
	switch {
	case kb <= 0:
		return "n/a"
	case kb < 1024:
		return fmt.Sprintf("%d KB", kb)
	default:
		return fmt.Sprintf("%.1f MB", float64(kb)/1024)
	}
}

// fmtFields renders a small JSON object as sorted key=value pairs.
// JSON numbers decode as float64; integral ones print as integers, not
// scientific notation.
func fmtFields(m map[string]any) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		v := m[k]
		if f, ok := v.(float64); ok {
			if f == float64(int64(f)) {
				parts[i] = fmt.Sprintf("%s=%d", k, int64(f))
				continue
			}
			parts[i] = fmt.Sprintf("%s=%.4g", k, f)
			continue
		}
		parts[i] = fmt.Sprintf("%s=%v", k, v)
	}
	return strings.Join(parts, " ")
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "obsreport:", msg)
	os.Exit(1)
}

// pctDelta is a percentage change guarded against a zero baseline.
func pctDelta(now, then int64) float64 {
	if then <= 0 {
		return 0
	}
	return (float64(now)/float64(then) - 1) * 100
}
