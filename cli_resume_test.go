package shufflenet_test

// End-to-end tests of the durable optimum search: SIGKILL a
// checkpointing run mid-frontier and resume it byte-identically,
// reopen a spill-backed transposition table warm, also after a
// SIGKILL, and drive the optcoord coordinator with two worker
// processes. These are the CLI acceptance paths for DESIGN.md §4,
// decision 14.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// resumeNet generates the kill/resume test circuit: random, n=20,
// depth 12, seed 1 — chosen so a single-worker optimum search takes a
// few seconds (long enough to kill mid-frontier, short enough for CI).
func resumeNet(t *testing.T, dir string, n, depth int, seed int64) string {
	t.Helper()
	out, err := run(t, "snet", "-net", "random", "-n", fmt.Sprint(n),
		"-depth", fmt.Sprint(depth), "-seed", fmt.Sprint(seed), "-op", "text")
	if err != nil {
		t.Fatalf("snet -net random: %v\n%s", err, out)
	}
	path := filepath.Join(dir, fmt.Sprintf("rand-%d-%d-%d.txt", n, depth, seed))
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// witnessLines extracts the run-independent result lines: the optimum
// size (with the timing suffix stripped) and, under -v, the witness
// pattern and set. Two runs over the same circuit must agree on these
// bytes no matter how the search was partitioned or resumed.
func witnessLines(t *testing.T, out string) string {
	t.Helper()
	var b strings.Builder
	for _, ln := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(ln, "optimal noncolliding [M_0]-set:"):
			size, _, ok := strings.Cut(ln, " (exact")
			if !ok {
				t.Fatalf("malformed result line %q", ln)
			}
			b.WriteString(size + "\n")
		case strings.HasPrefix(ln, "  witness pattern:"), strings.HasPrefix(ln, "  set:"):
			b.WriteString(ln + "\n")
		}
	}
	if b.Len() == 0 {
		t.Fatalf("no optimum result in output:\n%s", out)
	}
	return b.String()
}

// countPrefixDone counts prefix_done checkpoint records in a journal.
// A half-written final line (the SIGKILL signature) is fine: a torn
// record simply does not count, which is exactly how -resume reads it.
func countPrefixDone(path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	return bytes.Count(data, []byte(`"type":"prefix_done"`))
}

// killMidFrontier starts adversary with args plus -journal journal,
// waits until at least min prefixes are retired, and SIGKILLs it — no
// signal handler, no orderly flush. It returns the number of
// prefix_done records the killed run left.
func killMidFrontier(t *testing.T, bin, journal string, min int, args ...string) int {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, "adversary"), append(args, "-journal", journal)...)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	deadline := time.After(60 * time.Second)
	for countPrefixDone(journal) < min {
		select {
		case err := <-exited:
			t.Fatalf("search finished before it could be killed (exit %v); the test circuit is too fast", err)
		case <-deadline:
			cmd.Process.Kill()
			t.Fatalf("no prefix_done checkpoints after 60s; journal:\n%d records", countPrefixDone(journal))
		case <-time.After(10 * time.Millisecond):
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-exited
	done := countPrefixDone(journal)
	if done < min || done >= 81 {
		t.Fatalf("killed run checkpointed %d prefixes, want mid-frontier (%d..80)", done, min)
	}
	return done
}

// tableMisses reads the miss count off adversary -optimal's
// transposition-table line.
func tableMisses(t *testing.T, out string) int64 {
	t.Helper()
	m := regexp.MustCompile(`transposition table: \d+ bytes, \d+ hits / (\d+) misses`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no transposition table counters in output:\n%s", out)
	}
	n, err := strconv.ParseInt(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCLIOptimalKillResume is the durability acceptance test: a
// checkpointing optimum search is SIGKILLed mid-frontier, resumed with
// -resume, and must report byte-identical witness lines to an
// uninterrupted run. The resumed run's own journal must again be a
// complete checkpoint (second-generation resume skips all 81
// prefixes), and resuming against a different circuit must be refused.
func TestCLIOptimalKillResume(t *testing.T) {
	bin := binaries(t)
	dir := t.TempDir()
	netPath := resumeNet(t, dir, 20, 12, 1)

	out, err := run(t, "adversary", "-optimal", "-file", netPath, "-workers", "1", "-v")
	if err != nil {
		t.Fatalf("reference run failed: %v\n%s", err, out)
	}
	ref := witnessLines(t, out)

	// Start the same search with checkpointing and SIGKILL it
	// mid-frontier; the journal's synced prefix_done records are all
	// that survives.
	killedJournal := filepath.Join(dir, "killed.jsonl")
	done := killMidFrontier(t, bin, killedJournal, 2, "-optimal", "-file", netPath, "-workers", "1")

	// Resume. The skipped count must match the surviving checkpoints and
	// the witness must be byte-identical to the uninterrupted run.
	resumedJournal := filepath.Join(dir, "resumed.jsonl")
	out, err = run(t, "adversary", "-optimal", "-file", netPath, "-workers", "1", "-v",
		"-resume", killedJournal, "-journal", resumedJournal)
	if err != nil {
		t.Fatalf("resumed run failed: %v\n%s", err, out)
	}
	want := fmt.Sprintf("%d/81 prefixes skipped", done)
	if !strings.Contains(out, "resuming from "+killedJournal) || !strings.Contains(out, want) {
		t.Fatalf("resume summary missing %q:\n%s", want, out)
	}
	if got := witnessLines(t, out); got != ref {
		t.Fatalf("resumed witness differs from uninterrupted run:\n--- resumed\n%s--- reference\n%s", got, ref)
	}

	// The resumed journal checkpoints skipped prefixes too, so it is
	// itself a complete frontier: resuming from it skips everything and
	// still reproduces the witness (the seeded incumbent alone carries
	// the result).
	if got := countPrefixDone(resumedJournal); got != 81 {
		t.Fatalf("resumed journal has %d prefix_done records, want all 81", got)
	}
	out, err = run(t, "adversary", "-optimal", "-file", netPath, "-workers", "1", "-v",
		"-resume", resumedJournal)
	if err != nil {
		t.Fatalf("second-generation resume failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "81/81 prefixes skipped") {
		t.Fatalf("second-generation resume did not skip the whole frontier:\n%s", out)
	}
	if got := witnessLines(t, out); got != ref {
		t.Fatalf("second-generation witness differs:\n--- got\n%s--- reference\n%s", got, ref)
	}

	// A checkpoint journal is bound to its circuit by fingerprint:
	// resuming against a different network must be refused.
	otherPath := resumeNet(t, dir, 20, 12, 2)
	out, err = run(t, "adversary", "-optimal", "-file", otherPath, "-workers", "1",
		"-resume", killedJournal)
	if err == nil || !strings.Contains(out, "different circuit") {
		t.Fatalf("resume against the wrong circuit accepted: %v\n%s", err, out)
	}
}

// TestCLIOptimalSpillWarm reopens a spill-backed transposition table:
// the first run creates the file cold, the second reopens it warm, and
// both report the same optimum.
func TestCLIOptimalSpillWarm(t *testing.T) {
	dir := t.TempDir()
	netPath := resumeNet(t, dir, 18, 10, 5)
	spill := filepath.Join(dir, "memo.spill")

	out, err := run(t, "adversary", "-optimal", "-file", netPath, "-workers", "2",
		"-spill", spill, "-memo", fmt.Sprint(1<<20))
	if err != nil {
		t.Fatalf("cold spill run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "transposition table spill: "+spill) || !strings.Contains(out, "cold") {
		t.Fatalf("cold spill banner missing:\n%s", out)
	}
	ref := witnessLines(t, out)

	out, err = run(t, "adversary", "-optimal", "-file", netPath, "-workers", "2",
		"-spill", spill, "-memo", fmt.Sprint(1<<20))
	if err != nil {
		t.Fatalf("warm spill run failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "warm (reopened with the previous run's bounds)") {
		t.Fatalf("second run did not reopen the spill file warm:\n%s", out)
	}
	if got := witnessLines(t, out); got != ref {
		t.Fatalf("warm run result differs:\n--- warm\n%s--- cold\n%s", got, ref)
	}
}

// TestCLIOptimalSpillSurvivesKill: the spill file is the table, so a
// SIGKILLed search leaves behind every bound it stored, not only the
// ones it evicted. A checkpointing run with -spill is killed
// mid-frontier, then rerun on the same file without -resume: it must
// reopen the file warm, report the uninterrupted run's witness, and
// miss the table fewer times than a cold run does.
func TestCLIOptimalSpillSurvivesKill(t *testing.T) {
	bin := binaries(t)
	dir := t.TempDir()
	netPath := resumeNet(t, dir, 20, 12, 1)

	out, err := run(t, "adversary", "-optimal", "-file", netPath, "-workers", "1", "-v")
	if err != nil {
		t.Fatalf("reference run failed: %v\n%s", err, out)
	}
	ref := witnessLines(t, out)
	coldMisses := tableMisses(t, out)

	// Prefixes 0-9 of this circuit retire within a millisecond without
	// reaching the table, and prefix 10 searches for ~0.1 s: killing
	// after 2 records would race that first store. After 12, at least
	// prefixes 10 and 11 have stored their bounds.
	spill := filepath.Join(dir, "memo.spill")
	killMidFrontier(t, bin, filepath.Join(dir, "killed.jsonl"), 12,
		"-optimal", "-file", netPath, "-workers", "1", "-spill", spill)

	out, err = run(t, "adversary", "-optimal", "-file", netPath, "-workers", "1", "-v", "-spill", spill)
	if err != nil {
		t.Fatalf("rerun on the killed run's spill file failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "warm (reopened with the previous run's bounds)") {
		t.Fatalf("rerun did not reopen the spill file warm:\n%s", out)
	}
	if got := witnessLines(t, out); got != ref {
		t.Fatalf("rerun witness differs from uninterrupted run:\n--- rerun\n%s--- reference\n%s", got, ref)
	}
	if warm := tableMisses(t, out); warm >= coldMisses {
		t.Fatalf("rerun missed the table %d times, a cold run %d: the killed run's bounds did not survive", warm, coldMisses)
	}
}

// TestCLICoordTwoWorkers drives the distributed search end to end: an
// optcoord coordinator leases the frontier to two adversary worker
// processes, merges their reports, verifies the witness, and all three
// processes agree with a plain single-process run.
func TestCLICoordTwoWorkers(t *testing.T) {
	bin := binaries(t)
	dir := t.TempDir()
	netPath := resumeNet(t, dir, 20, 12, 7)

	out, err := run(t, "adversary", "-optimal", "-file", netPath, "-workers", "1")
	if err != nil {
		t.Fatalf("reference run failed: %v\n%s", err, out)
	}
	ref := witnessLines(t, out)

	coordCmd := exec.Command(filepath.Join(bin, "optcoord"),
		"-file", netPath, "-addr", "127.0.0.1:0", "-chunk", "5", "-linger", "1s")
	var coordStderr bytes.Buffer
	coordCmd.Stderr = &coordStderr
	stdout, err := coordCmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := coordCmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer coordCmd.Process.Kill()

	// The coordinator binds :0; scrape the real address off its banner,
	// then keep collecting its stdout until it exits.
	var coordOut strings.Builder
	addr := ""
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		ln := sc.Text()
		coordOut.WriteString(ln + "\n")
		if rest, ok := strings.CutPrefix(ln, "optcoord: listening on "); ok {
			addr = rest
			break
		}
	}
	if addr == "" {
		t.Fatalf("coordinator never announced its address:\n%s", coordOut.String())
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for sc.Scan() {
			coordOut.WriteString(sc.Text() + "\n")
		}
	}()

	type result struct {
		out []byte
		err error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			w := exec.Command(filepath.Join(bin, "adversary"),
				"-optimal", "-coord", "http://"+addr, "-workers", "1")
			out, err := w.CombinedOutput()
			results <- result{out, err}
		}()
	}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("worker failed: %v\n%s", r.err, r.out)
		}
		if got := witnessLines(t, string(r.out)); got != ref {
			t.Fatalf("worker result differs:\n--- worker\n%s--- reference\n%s", got, ref)
		}
	}

	// Both workers saw Done, so the coordinator is in its linger window;
	// drain its stdout to EOF, then reap it.
	<-drained
	if err := coordCmd.Wait(); err != nil {
		t.Fatalf("coordinator exited nonzero: %v\nstdout:\n%sstderr:\n%s",
			err, coordOut.String(), coordStderr.String())
	}
	co := coordOut.String()
	if !strings.Contains(co, "witness verified against the circuit (pattern.Noncolliding)") {
		t.Fatalf("coordinator did not verify the merged witness:\n%s", co)
	}
	if got := witnessLines(t, co); got != ref {
		t.Fatalf("coordinator merged result differs:\n--- coordinator\n%s--- reference\n%s", got, ref)
	}
}

// TestCLIResumeRejectsForgedSeed: the journal is bytes the resuming
// process did not write, and the search returns a seeded incumbent it
// cannot beat unchanged. A single forged prefix_done record claiming
// incumbent 2^64-1 must make adversary -resume and optcoord -resume
// fail before searching, not print the forgery as the exact optimum.
func TestCLIResumeRejectsForgedSeed(t *testing.T) {
	dir := t.TempDir()
	netPath := resumeNet(t, dir, 10, 4, 1)
	journal := filepath.Join(dir, "run.jsonl")
	out, err := run(t, "adversary", "-optimal", "-file", netPath, "-workers", "1", "-journal", journal)
	if err != nil {
		t.Fatalf("checkpointing run failed: %v\n%s", err, out)
	}
	f, err := os.OpenFile(journal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteString(`{"type":"prefix_done","prefix":0,"incumbent":18446744073709551615,"seq":1000}` + "\n")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}

	out, err = run(t, "adversary", "-optimal", "-file", netPath, "-workers", "1", "-resume", journal)
	if err == nil || !strings.Contains(out, "not a witness") || strings.Contains(out, "optimal noncolliding") {
		t.Fatalf("adversary -resume accepted the forged seed: %v\n%s", err, out)
	}
	out, err = run(t, "optcoord", "-file", netPath, "-addr", "127.0.0.1:0", "-linger", "0s", "-resume", journal)
	if err == nil || !strings.Contains(out, "not a witness") || strings.Contains(out, "listening on") {
		t.Fatalf("optcoord -resume accepted the forged seed: %v\n%s", err, out)
	}
}
