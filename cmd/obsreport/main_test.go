package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

const sampleJournal = `{"time":"2026-08-07T10:00:00Z","cmd":"adversary","run":"adversary-1-a","args":["-n","256"],"seed":7,"wall_ms":1500,"cpu_ms":5000,"mem":{"max_rss_kb":20480}}
{"type":"heartbeat","run":"adversary-2-b","cmd":"adversary","seq":1,"time":"2026-08-07T10:01:00Z","elapsed_ms":1000,"frac":0.25,"eta_ms":3000,"fields":{"optimal.nodes":1000}}
{"type":"heartbeat","run":"adversary-2-b","cmd":"adversary","seq":2,"time":"2026-08-07T10:01:01Z","elapsed_ms":2000,"frac":0.5,"eta_ms":2000,"fields":{"optimal.nodes":2500}}
{"type":"heartbeat","run":"adversary-2-b","cmd":"adversary","seq":3,"time":"2026-08-07T10:01:02Z","elapsed_ms":3000,"frac":0.75,"eta_ms":1000,"fields":{"optimal.nodes":4000}}
{"type":"run","time":"2026-08-07T10:02:00Z","cmd":"adversary","run":"adversary-3-c","args":["-n","256"],"seed":7,"wall_ms":3000,"cpu_ms":9000,"mem":{"max_rss_kb":40960}}
`

// read reads each journal text as one file (named j0.jsonl, j1.jsonl,
// ...), failing the test on an error.
func read(t *testing.T, journals ...string) *Journals {
	t.Helper()
	var js Journals
	for i, j := range journals {
		if err := js.Read(fmt.Sprintf("j%d.jsonl", i), strings.NewReader(j)); err != nil {
			t.Fatal(err)
		}
	}
	return &js
}

func report(js *Journals) string {
	var buf strings.Builder
	js.WriteReport(&buf)
	return buf.String()
}

func wantLines(t *testing.T, out string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("report lacks %q:\n%s", w, out)
		}
	}
}

// TestParseAndGroup: records are grouped into runs by run ID, an
// untyped entry (journals before records were typed) and a typed one
// both complete their run, and a heartbeat trail with no entry is the
// killed-run signature.
func TestParseAndGroup(t *testing.T) {
	runs := read(t, sampleJournal).Runs
	if len(runs) != 3 {
		t.Fatalf("got %d runs, want 3: %+v", len(runs), runs)
	}
	if !runs[0].Complete() || runs[0].Beats != 0 || !runs[2].Complete() {
		t.Fatalf("runs 0 and 2 should be bare completed entries: %+v, %+v", runs[0], runs[2])
	}
	killed := runs[1]
	if killed.Complete() {
		t.Fatalf("run 1 has no entry and must report incomplete: %+v", killed)
	}
	if killed.Beats != 3 || killed.FirstSeq != 1 || killed.LastBeat.Seq != 3 {
		t.Fatalf("run 1 heartbeats: %d, seq %d..%d; want 3, seq 1..3", killed.Beats, killed.FirstSeq, killed.LastBeat.Seq)
	}
}

func TestWriteReport(t *testing.T) {
	out := report(read(t, sampleJournal))
	for _, want := range []string{
		"INCOMPLETE",                // the orphan heartbeat trail is flagged
		"heartbeats 3",              // with its trail length
		"75.0% done",                // and the last heartbeat's fraction
		"optimal.nodes",             // and its counters
		"vs previous identical run", // runs 1 and 3 share cmd+args
		"3 run(s): 2 completed, 1 incomplete",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	// Wall went 1500 → 3000 ms between the identical runs: +100%.
	if !strings.Contains(out, "wall +100.0%") {
		t.Errorf("run-over-run delta missing or wrong:\n%s", out)
	}
}

// TestWriteReportFailedRun: a CLI fail() flushes an orderly entry with
// extra.error set — the report must say failed, not completed, and the
// failed run must not become the delta baseline for later runs.
func TestWriteReportFailedRun(t *testing.T) {
	const j = `{"time":"2026-08-07T10:00:00Z","cmd":"adversary","run":"adversary-1-a","args":["-n","20"],"wall_ms":8,"extra":{"error":"n must be a power of two"}}
{"time":"2026-08-07T10:01:00Z","cmd":"adversary","run":"adversary-2-b","args":["-n","20"],"wall_ms":9}
`
	out := report(read(t, j))
	if !strings.Contains(out, "status failed: n must be a power of two") {
		t.Errorf("failed run not flagged:\n%s", out)
	}
	if strings.Contains(out, "vs previous identical run") {
		t.Errorf("failed run must not be a delta baseline:\n%s", out)
	}
}

// TestWriteReportFrontier: the resumable-search checkpoint records are
// recognized (not mistaken for run entries) and rendered as the resume
// summary plus a checkpoint count; heartbeat accounting is unaffected.
func TestWriteReportFrontier(t *testing.T) {
	const j = `{"type":"frontier_init","run":"adversary-1-a","cmd":"adversary","net":"00112233445566778899aabbccddeeff","n":26,"prefixes":81,"seq":1}
{"type":"prefix_done","run":"adversary-1-a","cmd":"adversary","prefix":0,"incumbent":123,"seq":2}
{"type":"prefix_done","run":"adversary-1-a","cmd":"adversary","prefix":1,"incumbent":456,"seq":3}
{"type":"heartbeat","run":"adversary-1-a","cmd":"adversary","seq":1,"elapsed_ms":50}
{"type":"frontier_init","run":"adversary-2-b","cmd":"adversary","net":"00112233445566778899aabbccddeeff","n":26,"prefixes":81,"seed":456,"seq":1}
{"type":"resumed","run":"adversary-2-b","cmd":"adversary","from":"run.jsonl","from_seq":3,"skipped":2,"prefixes":81,"seed":456,"seq":2}
{"time":"2026-08-07T10:02:00Z","cmd":"adversary","run":"adversary-2-b","args":["-optimal"],"wall_ms":3000}
`
	js := read(t, j)
	runs := js.Runs
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(runs))
	}
	killed := runs[0]
	if killed.Complete() {
		t.Fatalf("run 0 has only checkpoints and a heartbeat; must be incomplete: %+v", killed)
	}
	if killed.DonePrefix != 2 || killed.Init == nil || killed.LastSeq != 3 {
		t.Fatalf("run 0 frontier state: done=%d init=%v lastSeq=%d", killed.DonePrefix, killed.Init, killed.LastSeq)
	}
	if killed.Beats != 1 {
		t.Fatalf("frontier records must not count as heartbeats: %d beats", killed.Beats)
	}
	if runs[1].Resumed == nil || !runs[1].Complete() {
		t.Fatalf("run 1 should be a completed resumed run: %+v", runs[1])
	}

	out := report(js)
	for _, want := range []string{
		"resumed from seq 3, 2/81 prefixes skipped (from run.jsonl)",
		"frontier checkpoints: 2/81 prefixes done",
		"last seq 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// TestParseJournalRejectsCorrupt: an unparseable line followed by
// more records is corruption, not a torn tail, and fails the read. (A
// corrupt last line is the torn tail; see TestReportTornTail.)
func TestParseJournalRejectsCorrupt(t *testing.T) {
	var js Journals
	if err := js.Read("j", strings.NewReader("{\"cmd\":\"x\"}\nnot json\n{\"cmd\":\"y\"}\n")); err == nil {
		t.Fatal("corrupt journal line must be an error")
	}
}

// TestReportTornTail: a run killed mid-write leaves a torn last line.
// The journal still reports — the run as INCOMPLETE with its trail,
// plus a note naming the torn journal — instead of failing the read.
func TestReportTornTail(t *testing.T) {
	const j = `{"type":"heartbeat","run":"adversary-1-a","cmd":"adversary","seq":0,"elapsed_ms":1}
{"type":"frontier_init","run":"adversary-1-a","cmd":"adversary","net":"00112233445566778899aabbccddeeff","n":16,"prefixes":81,"seq":1}
{"type":"prefix_done","run":"adversary-1-a","cmd":"adversary","prefix":0,"incumbent":0,"seq":2}
{"type":"prefix_done","run":"adversary-1-a","cmd":"advers`
	js := read(t, j)
	if len(js.Torn) != 1 || js.Torn[0] != "j0.jsonl" {
		t.Fatalf("torn journals = %v, want [j0.jsonl]", js.Torn)
	}
	wantLines(t, report(js),
		"status INCOMPLETE",
		"frontier checkpoints: 1/81 prefixes done",
		"1 run(s): 0 completed, 1 incomplete",
		"note: j0.jsonl ends in a torn line",
	)
}

// TestReportDaemonJournal: a daemon journal is one run — its request
// lines carry the daemon's run ID — with a request count, not one run
// per request line.
func TestReportDaemonJournal(t *testing.T) {
	const j = `{"type":"request","run":"shufflenetd-1-a","cmd":"shufflenetd","time":"2026-10-17T14:21:53.36Z","endpoint":"check","status":200,"ms":2.3,"n":16}
{"type":"heartbeat","run":"shufflenetd-1-a","cmd":"shufflenetd","seq":0,"elapsed_ms":10}
{"type":"request","run":"shufflenetd-1-a","cmd":"shufflenetd","time":"2026-10-17T14:21:53.37Z","endpoint":"optimal","status":200,"ms":0.4,"n":16,"cache":"hit"}
{"type":"request","run":"shufflenetd-1-a","cmd":"shufflenetd","time":"2026-10-17T14:21:53.38Z","endpoint":"check","status":429,"ms":0.01,"error":"server at capacity"}
{"type":"run","run":"shufflenetd-1-a","cmd":"shufflenetd","time":"2026-10-17T14:21:52Z","args":["-addr",":8090"],"wall_ms":1500,"interrupted":true}
`
	js := read(t, j)
	if len(js.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(js.Runs))
	}
	wantLines(t, report(js),
		"cmd shufflenetd  status interrupted",
		"requests 3 (1 failed)",
		"heartbeats 1",
		"1 run(s): 1 completed, 0 incomplete",
	)
}

// TestReportOldJournal reads a journal in the dialects written before
// records shared one header: an entry with no type and no run ID,
// heartbeat and frontier records with no cmd on the frontier lines, a
// resumed run's entry with no type, and daemon request lines with no
// run ID. The request lines go under one bucket, not one run each.
func TestReportOldJournal(t *testing.T) {
	f, err := os.Open("../../internal/obs/testdata/old_journal.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var js Journals
	if err := js.Read("old_journal.jsonl", f); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range js.Runs {
		ids = append(ids, r.ID)
	}
	want := []string{
		"(pre-heartbeat journal, record 1)",
		"adversary-24982-18df5710c8bf824f",
		"adversary-25075-18df57140392eac4",
		"",
		"shufflenetd-25043-18df57124ea01a5c",
	}
	if strings.Join(ids, "|") != strings.Join(want, "|") {
		t.Fatalf("runs = %q, want %q", ids, want)
	}
	killed, resumed := js.Runs[1], js.Runs[2]
	if killed.Complete() || killed.Cmd != "adversary" || killed.Beats != 2 || killed.DonePrefix != 3 || killed.LastSeq != 4 {
		t.Fatalf("killed run = %+v", killed)
	}
	if !resumed.Complete() || resumed.Resumed == nil || resumed.DonePrefix != 2 {
		t.Fatalf("resumed run = %+v", resumed)
	}
	if r := js.Runs[3]; r.Requests != 3 || r.FailedRequests != 1 {
		t.Fatalf("run-less requests = %d (%d failed), want 3 (1 failed)", r.Requests, r.FailedRequests)
	}
	wantLines(t, report(&js),
		"cmd snet  status completed",
		"resumed from seq 4, 3/81 prefixes skipped (from old.jsonl)",
		"requests 3 (1 failed)",
		"cmd shufflenetd  status interrupted",
		"4 run(s): 3 completed, 1 incomplete",
	)
}
