package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// readRecords decodes every record of the journal at path into T,
// failing the test on a read error or a torn tail.
func readRecords[T any](t *testing.T, path string) []T {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []T
	torn, err := ReadJournal(f, func(_ Header, line []byte) error {
		var rec T
		if err := json.Unmarshal(line, &rec); err != nil {
			return err
		}
		out = append(out, rec)
		return nil
	})
	if err != nil || torn {
		t.Fatalf("ReadJournal(%s): torn %v, err %v", path, torn, err)
	}
	return out
}

func readSamples(t *testing.T, path string) []Sample { return readRecords[Sample](t, path) }

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")

	reg := NewRegistry()
	reg.Counter("test.masks").Add(65536)
	reg.FGauge("test.eps").Set(0.125)

	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEntry("testcmd")
	e.Seed = 7
	e.Set("blocks", []map[string]int{{"survivors": 40, "collisions": 2}})
	root := NewSpan("run")
	root.Child("phase").End()
	root.End()
	e.AddSpans(root)
	e.Finish(reg)
	if err := j.Write(e); err != nil {
		t.Fatal(err)
	}
	// Second entry: the journal appends.
	e2 := NewEntry("testcmd2")
	e2.Finish(nil)
	if err := j.Write(e2); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	lines := readRecords[Entry](t, path)
	if len(lines) != 2 {
		t.Fatalf("journal has %d lines, want 2", len(lines))
	}
	got := lines[0]
	if got.Type != RecRun || got.Cmd != "testcmd" || got.Seed != 7 {
		t.Fatalf("cmd/seed = %s/%d", got.Cmd, got.Seed)
	}
	if got.GoVersion == "" || got.OS == "" || got.Arch == "" || got.Time == "" {
		t.Fatalf("identity fields missing: %+v", got)
	}
	if got.WallMS < 0 {
		t.Fatalf("wall_ms = %g", got.WallMS)
	}
	if got.Mem.TotalAllocBytes == 0 {
		t.Fatal("mem stats missing")
	}
	if v, ok := got.Metrics["test.masks"]; !ok || v.(float64) != 65536 {
		t.Fatalf("metrics round-trip: %v", got.Metrics)
	}
	if v, ok := got.Metrics["test.eps"]; !ok || v.(float64) != 0.125 {
		t.Fatalf("fgauge round-trip: %v", got.Metrics)
	}
	if len(got.Spans) != 2 || got.Spans[0].Path != "run" || got.Spans[1].Path != "run/phase" {
		t.Fatalf("spans = %+v", got.Spans)
	}
	if _, ok := got.Extra["blocks"]; !ok {
		t.Fatalf("extra payload missing: %v", got.Extra)
	}
	if lines[1].Cmd != "testcmd2" {
		t.Fatalf("second line cmd = %s", lines[1].Cmd)
	}
}

func TestOpenJournalEmptyPath(t *testing.T) {
	j, err := OpenJournal("")
	if err != nil || j != nil {
		t.Fatalf("OpenJournal(\"\") = %v, %v", j, err)
	}
	// The nil journal is inert.
	if err := j.Write(NewEntry("x")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalWriteFillsHeader: a record written through a CLI run's
// journal carries that run's ID and command, and a time, when it
// leaves them empty; fields it sets are kept.
func TestJournalWriteFillsHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	run, err := StartCLI("testcmd", path, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Journal().Write(&Sample{Header: Header{Type: RecHeartbeat}}); err != nil {
		t.Fatal(err)
	}
	if err := run.Journal().Write(&Sample{Header: Header{Type: RecHeartbeat, Run: "other"}}); err != nil {
		t.Fatal(err)
	}
	run.Finish()

	recs := readRecords[Header](t, path)
	if len(recs) != 3 {
		t.Fatalf("journal has %d records, want 3", len(recs))
	}
	if h := recs[0]; h.Run != run.Entry.Run || h.Cmd != "testcmd" || h.Time == "" {
		t.Fatalf("filled header = %+v, want run %s, cmd testcmd, a time", h, run.Entry.Run)
	}
	if recs[1].Run != "other" {
		t.Fatalf("a record's own run was overwritten: %+v", recs[1])
	}
	if recs[2].Type != RecRun || recs[2].Run != run.Entry.Run {
		t.Fatalf("last record = %+v, want the run entry", recs[2])
	}
}

// TestJournalConcurrentWrites: records written from several
// goroutines at once through one CLI run's journal each land whole on
// their own line, stamped with the run.
func TestJournalConcurrentWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	run, err := StartCLI("testcmd", path, false, "")
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := run.Journal().Write(&Sample{Header: Header{Type: RecHeartbeat}, Seq: int64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	run.Finish()
	samples := readSamples(t, path)
	if len(samples) != writers*each+1 {
		t.Fatalf("journal has %d records, want %d", len(samples), writers*each+1)
	}
	for _, s := range samples {
		if s.Run != run.Entry.Run {
			t.Fatalf("record not stamped with the run: %+v", s.Header)
		}
	}
}

// TestReadJournalFraming: blank lines are skipped, an untyped line is a
// run entry, an unparseable last line is a torn tail, and an
// unparseable line before another record is an error.
func TestReadJournalFraming(t *testing.T) {
	read := func(s string) ([]string, bool, error) {
		var types []string
		torn, err := ReadJournal(strings.NewReader(s), func(h Header, _ []byte) error {
			types = append(types, h.Type)
			return nil
		})
		return types, torn, err
	}
	types, torn, err := read(`{"cmd":"old"}` + "\n\n  \n" + `{"type":"heartbeat","seq":1}` + "\n" + `{"type":"heart`)
	if err != nil || !torn || strings.Join(types, ",") != "run,heartbeat" {
		t.Fatalf("torn tail: types %v, torn %v, err %v", types, torn, err)
	}
	if _, torn, err := read(`{"cmd":"old"}` + "\n"); err != nil || torn {
		t.Fatalf("clean journal: torn %v, err %v", torn, err)
	}
	_, _, err = read(`{"cmd":"old"}` + "\n" + `{"type":"hea` + "\n\n" + `{"cmd":"x"}` + "\n")
	if err == nil || !strings.Contains(err.Error(), "line 2:") {
		t.Fatalf("torn middle: err %v, want a line-2 error", err)
	}
}

// TestOpenJournalCutsTornTail: a run killed mid-line leaves a fragment
// at the end of the journal. Reopening the journal cuts it, so a
// resumed run's records start on lines of their own and the journal
// reads back whole, with no torn line anywhere. A journal that is only
// a fragment is emptied.
func TestOpenJournalCutsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	write := func(cmds ...string) {
		t.Helper()
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cmds {
			if err := j.Write(&Entry{Header: Header{Type: RecRun, Cmd: c}}); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	tear := func() {
		t.Helper()
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"type":"prefix_done","pre`); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	write("a", "b")
	tear()
	write("c")
	tear()
	write("d")
	var cmds []string
	for _, e := range readRecords[Entry](t, path) {
		cmds = append(cmds, e.Cmd)
	}
	if got := strings.Join(cmds, ","); got != "a,b,c,d" {
		t.Fatalf("records after two torn tails = %s, want a,b,c,d", got)
	}

	if err := os.WriteFile(path, []byte(`{"type":"run"`), 0o644); err != nil {
		t.Fatal(err)
	}
	write()
	if data, _ := os.ReadFile(path); len(data) != 0 {
		t.Fatalf("a journal holding one fragment reopened as %q, want empty", data)
	}
}
