package shufflenet_test

// End-to-end tests of the command-line tools: each binary is built
// once into a temp dir, removed when the tests end, and driven through
// its primary flows.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"shufflenet/internal/obs"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

func binaries(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "shufflenet-bin")
		if buildErr != nil {
			return
		}
		for _, tool := range []string{"snet", "adversary", "experiments", "optcoord"} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "./cmd/"+tool)
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = err
				_ = out
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatalf("building CLIs: %v", buildErr)
	}
	return binDir
}

func run(t *testing.T, tool string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binaries(t), tool), args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestCLISnetInfoCheckEval(t *testing.T) {
	out, err := run(t, "snet", "-net", "bitonic", "-n", "16", "-op", "check")
	if err != nil || !strings.Contains(out, "sorting network: yes") {
		t.Fatalf("check failed: %v\n%s", err, out)
	}
	out, err = run(t, "snet", "-net", "stone", "-n", "16", "-op", "info")
	if err != nil || !strings.Contains(out, "shuffleBased=true") {
		t.Fatalf("info failed: %v\n%s", err, out)
	}
	out, err = run(t, "snet", "-net", "pratt", "-n", "8", "-op", "eval", "-input", "7,6,5,4,3,2,1,0")
	if err != nil || !strings.Contains(out, "sorted: true") {
		t.Fatalf("eval failed: %v\n%s", err, out)
	}
	out, err = run(t, "snet", "-net", "oddeven", "-n", "8", "-op", "ascii")
	if err != nil || !strings.Contains(out, "o-") {
		t.Fatalf("ascii failed: %v\n%s", err, out)
	}
}

func TestCLISnetFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "net.txt")
	out, err := run(t, "snet", "-net", "butterfly", "-n", "16", "-op", "text")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = run(t, "snet", "-net", "file:"+path, "-op", "info")
	if err != nil || !strings.Contains(out, "n=16") {
		t.Fatalf("file load failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "reverse delta topology: true") {
		t.Fatalf("butterfly not recognized from file:\n%s", out)
	}
}

func TestCLIAdversaryBuiltins(t *testing.T) {
	out, err := run(t, "adversary", "-n", "64", "-blocks", "2", "-topology", "butterfly")
	if err != nil || !strings.Contains(out, "NOT a sorting network") {
		t.Fatalf("adversary run failed: %v\n%s", err, out)
	}
	// Full bitonic: the adversary must refuse.
	out, err = run(t, "adversary", "-n", "16", "-blocks", "4", "-topology", "bitonic")
	if err != nil {
		t.Fatalf("adversary errored: %v\n%s", err, out)
	}
	if !strings.Contains(out, "no certificate") {
		t.Fatalf("adversary claimed to beat a full bitonic prefix:\n%s", out)
	}
}

func TestCLIAdversaryFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "two-butterflies.txt")
	single, err := run(t, "snet", "-net", "butterfly", "-n", "32", "-op", "text")
	if err != nil {
		t.Fatal(err)
	}
	// Concatenate two butterfly blocks into one 10-level circuit.
	var b strings.Builder
	lines := strings.Split(strings.TrimSpace(single), "\n")
	b.WriteString(lines[0] + "\n")
	for rep := 0; rep < 2; rep++ {
		for _, ln := range lines[1:] {
			b.WriteString(ln + "\n")
		}
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := run(t, "adversary", "-file", path)
	if err != nil || !strings.Contains(out, "certificate verified against the loaded circuit") {
		t.Fatalf("file adversary failed: %v\n%s", err, out)
	}
}

func TestCLIExperimentsQuick(t *testing.T) {
	out, err := run(t, "experiments", "-quick", "-run", "E4,E9")
	if err != nil {
		t.Fatalf("experiments failed: %v\n%s", err, out)
	}
	for _, want := range []string{"E4 —", "E9 —", "yes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
	out, err = run(t, "experiments", "-quick", "-run", "E1", "-csv")
	if err != nil || !strings.Contains(out, "n,lg n,") {
		t.Fatalf("CSV output wrong: %v\n%s", err, out)
	}
	// Unknown experiment: nonzero exit.
	if _, err = run(t, "experiments", "-run", "E42"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestCLIRunJournal is the observability acceptance path: two tools
// append run-journal lines to the same file, each line is one valid
// JSON object carrying the identity fields, final metrics, and — for
// the adversary — the per-block surviving-set sizes and collision
// counts.
func TestCLIRunJournal(t *testing.T) {
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")

	out, err := run(t, "adversary", "-n", "256", "-blocks", "2", "-journal", journal, "-metrics")
	if err != nil {
		t.Fatalf("adversary failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "--- metrics (adversary) ---") ||
		!strings.Contains(out, "core.adversary.blocks 2") {
		t.Fatalf("-metrics dump missing:\n%s", out)
	}

	out, err = run(t, "experiments", "-run", "E4", "-quick", "-journal", journal, "-trace")
	if err != nil {
		t.Fatalf("experiments failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "--- spans (experiments) ---") || !strings.Contains(out, "E4") {
		t.Fatalf("-trace output missing:\n%s", out)
	}

	entries := journalEntries(t, journal)
	if len(entries) != 2 {
		t.Fatalf("journal has %d entries, want 2 (one per invocation)", len(entries))
	}
	adv, exp := entries[0], entries[1]
	if adv.Cmd != "adversary" || exp.Cmd != "experiments" {
		t.Fatalf("cmd fields wrong: %q, %q", adv.Cmd, exp.Cmd)
	}
	if adv.GoVersion == "" || adv.WallMS <= 0 {
		t.Fatalf("identity/timing fields missing: %+v", adv)
	}
	if v, ok := adv.Metrics["core.adversary.blocks"].(float64); !ok || v != 2 {
		t.Fatalf("adversary metrics missing block count: %v", adv.Metrics)
	}

	// Per-block telemetry: 2 reports, each with survivor and collision
	// counts and the kept-set size.
	reports, ok := adv.Extra["reports"].([]any)
	if !ok || len(reports) != 2 {
		t.Fatalf("journal reports wrong: %v", adv.Extra["reports"])
	}
	for i, r := range reports {
		rep, ok := r.(map[string]any)
		if !ok {
			t.Fatalf("report %d not an object: %v", i, r)
		}
		for _, key := range []string{"Survivors", "SetCount", "Collisions", "After"} {
			if _, ok := rep[key]; !ok {
				t.Fatalf("report %d missing %s: %v", i, key, rep)
			}
		}
	}
	if _, ok := adv.Extra["certificate"]; !ok {
		t.Fatalf("adversary journal missing certificate summary: %v", adv.Extra)
	}
	if _, ok := exp.Extra["experiments"]; !ok {
		t.Fatalf("experiments journal missing per-experiment timings: %v", exp.Extra)
	}
}

// journalEntries reads the run journal at path, which must hold only
// run entries and no torn line.
func journalEntries(t *testing.T, path string) []obs.Entry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []obs.Entry
	torn, err := obs.ReadJournal(f, func(h obs.Header, line []byte) error {
		if h.Type != obs.RecRun {
			return fmt.Errorf("record type %q, want only run entries", h.Type)
		}
		var e obs.Entry
		if err := json.Unmarshal(line, &e); err != nil {
			return err
		}
		out = append(out, e)
		return nil
	})
	if err != nil || torn || len(out) == 0 {
		t.Fatalf("journal %s: %d entries, torn %v, err %v", path, len(out), torn, err)
	}
	return out
}

func lastJournalEntry(t *testing.T, path string) obs.Entry {
	t.Helper()
	entries := journalEntries(t, path)
	return entries[len(entries)-1]
}

func TestCLIExperimentsRunParsing(t *testing.T) {
	// Trailing and doubled commas (and stray spaces) in -run must be
	// tolerated, not rejected as unknown experiments.
	out, err := run(t, "experiments", "-quick", "-run", "E1, E9,")
	if err != nil {
		t.Fatalf("experiments rejected padded -run list: %v\n%s", err, out)
	}
	for _, want := range []string{"E1 —", "E9 —"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
	// An all-empty list is still an error.
	if _, err := run(t, "experiments", "-run", ", ,"); err == nil {
		t.Fatal("empty -run list accepted")
	}
}

// The three -timeout tests drive a deadline through each CLI: the run
// must exit 0 (a deadline is an orderly stop, not a failure), and the
// journal entry must be marked timed_out with partial progress fields.

func TestCLIAdversaryTimeout(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	out, err := run(t, "adversary", "-n", "16384", "-blocks", "2",
		"-topology", "random", "-timeout", "1ms", "-journal", journal)
	if err != nil {
		t.Fatalf("timed-out adversary exited nonzero: %v\n%s", err, out)
	}
	if !strings.Contains(out, "run canceled") {
		t.Fatalf("missing cancellation report:\n%s", out)
	}
	e := lastJournalEntry(t, journal)
	if e.Cmd != "adversary" || !e.TimedOut {
		t.Fatalf("journal not marked timed_out: %+v", e)
	}
	if v, ok := e.Partial["survivors"].(float64); !ok || v <= 0 {
		t.Fatalf("partial survivors missing: %v", e.Partial)
	}
	if _, ok := e.Partial["blocks_done"]; !ok {
		t.Fatalf("partial blocks_done missing: %v", e.Partial)
	}
}

func TestCLISnetCheckTimeout(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	out, err := run(t, "snet", "-net", "mergeexchange", "-n", "24",
		"-op", "check", "-timeout", "1ms", "-journal", journal)
	if err != nil {
		t.Fatalf("timed-out check exited nonzero: %v\n%s", err, out)
	}
	if !strings.Contains(out, "check canceled") || strings.Contains(out, "sorting network:") {
		t.Fatalf("canceled check must print no verdict:\n%s", out)
	}
	e := lastJournalEntry(t, journal)
	if !e.TimedOut {
		t.Fatalf("journal not marked timed_out: %+v", e)
	}
	if op, _ := e.Partial["op"].(string); !strings.HasPrefix(op, "sortcheck.ZeroOne") {
		t.Fatalf("partial op = %v, want a sortcheck scan: %v", e.Partial["op"], e.Partial)
	}
}

func TestCLIExperimentsTimeout(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	out, err := run(t, "experiments", "-run", "E3", "-timeout", "1ms", "-journal", journal)
	if err != nil {
		t.Fatalf("timed-out experiments exited nonzero: %v\n%s", err, out)
	}
	if !strings.Contains(out, "TRUNCATED") {
		t.Fatalf("cut table missing the TRUNCATED note:\n%s", out)
	}
	e := lastJournalEntry(t, journal)
	if !e.TimedOut {
		t.Fatalf("journal not marked timed_out: %+v", e)
	}
	if tr, _ := e.Partial["truncated"].(string); tr != "E3" {
		t.Fatalf("partial truncated = %v, want E3: %v", e.Partial["truncated"], e.Partial)
	}
}

func TestCLIAdversarySaveAndCheck(t *testing.T) {
	dir := t.TempDir()
	netPath := filepath.Join(dir, "net.txt")
	certPath := filepath.Join(dir, "cert.json")
	single, err := run(t, "snet", "-net", "butterfly", "-n", "16", "-op", "text")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(single), "\n")
	var b strings.Builder
	b.WriteString(lines[0] + "\n")
	for rep := 0; rep < 2; rep++ {
		for _, ln := range lines[1:] {
			b.WriteString(ln + "\n")
		}
	}
	if err := os.WriteFile(netPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := run(t, "adversary", "-file", netPath, "-save", certPath)
	if err != nil || !strings.Contains(out, "certificate written") {
		t.Fatalf("save failed: %v\n%s", err, out)
	}
	out, err = run(t, "adversary", "-check", certPath, "-file", netPath)
	if err != nil || !strings.Contains(out, "NOT a sorting network") {
		t.Fatalf("check failed: %v\n%s", err, out)
	}
	// Checking against the WRONG network must fail.
	wrong, err := run(t, "snet", "-net", "bitonic", "-n", "16", "-op", "text")
	if err != nil {
		t.Fatal(err)
	}
	wrongPath := filepath.Join(dir, "wrong.txt")
	if err := os.WriteFile(wrongPath, []byte(wrong), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(t, "adversary", "-check", certPath, "-file", wrongPath); err == nil {
		t.Fatal("certificate accepted against the wrong network")
	}
}
