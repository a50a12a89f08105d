package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	input := `goos: linux
goarch: amd64
pkg: shufflenet
cpu: Intel(R) Xeon(R) CPU
BenchmarkZeroOneScalarVsBits/bits-1   9482  126613 ns/op  517.85 MB/s  479000000 inputs/s  520 B/op  3 allocs/op
BenchmarkCounterAdd/enabled-1   197550471  6.07 ns/op  0 B/op  0 allocs/op
PASS
ok  	shufflenet	12.3s
`
	doc, err := Parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.Pkg != "shufflenet" {
		t.Fatalf("bad header: %+v", doc)
	}
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(doc.Benchmarks))
	}
	// Sorted by name: CounterAdd before ZeroOne.
	c, z := doc.Benchmarks[0], doc.Benchmarks[1]
	if c.Name != "BenchmarkCounterAdd/enabled-1" || c.NsPerOp != 6.07 || c.AllocsPerOp != 0 {
		t.Fatalf("bad counter result: %+v", c)
	}
	if z.Iterations != 9482 || z.NsPerOp != 126613 || z.MBPerSec != 517.85 || z.BytesPerOp != 520 {
		t.Fatalf("bad zeroone result: %+v", z)
	}
	if z.Extra["inputs/s"] != 479000000 {
		t.Fatalf("custom metric lost: %+v", z.Extra)
	}
}

func TestParseSkipsMalformed(t *testing.T) {
	doc, err := Parse(strings.NewReader("BenchmarkHeader\nBenchmarkOdd 12 34\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 0 {
		t.Fatalf("malformed lines should be skipped: %+v", doc.Benchmarks)
	}
}

func TestStripProcs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkFoo/bar-8":    "BenchmarkFoo/bar",
		"BenchmarkFoo/bar":      "BenchmarkFoo/bar",
		"BenchmarkFoo/n=16-128": "BenchmarkFoo/n=16",
		"BenchmarkFoo/k-means":  "BenchmarkFoo/k-means", // non-numeric suffix kept
	}
	for in, want := range cases {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

// writeDoc records a Doc to a temp file for Diff tests.
func writeDoc(t *testing.T, dir, name string, benches []Result) string {
	t.Helper()
	return writeDocGuard(t, dir, name, "", benches)
}

// writeDocGuard is writeDoc with a recorded guard regexp.
func writeDocGuard(t *testing.T, dir, name, guard string, benches []Result) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(Doc{Guard: guard, Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiffGuardedRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeDoc(t, dir, "old.json", []Result{
		{Name: "BenchmarkZeroOneScalarVsBits/bits-8", NsPerOp: 100},
		{Name: "BenchmarkZeroOneScalarVsBits/scalar-8", NsPerOp: 100},
	})
	// Guarded bench 30% slower (recorded at a different GOMAXPROCS),
	// unguarded bench 10x slower: only the guarded one counts.
	nu := writeDoc(t, dir, "new.json", []Result{
		{Name: "BenchmarkZeroOneScalarVsBits/bits-1", NsPerOp: 130},
		{Name: "BenchmarkZeroOneScalarVsBits/scalar-1", NsPerOp: 1000},
	})
	var buf strings.Builder
	failures, err := Diff(&buf, old, nu, defaultGuard, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 1 {
		t.Fatalf("failures = %d, want 1\n%s", failures, buf.String())
	}
	if !strings.Contains(buf.String(), "FAIL") {
		t.Fatalf("output lacks FAIL marker:\n%s", buf.String())
	}
}

func TestDiffWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	old := writeDoc(t, dir, "old.json", []Result{
		{Name: "BenchmarkZeroOneScalarVsBits/bits-1", NsPerOp: 100},
		{Name: "BenchmarkHalverEpsilon/bits-1", NsPerOp: 200},
	})
	nu := writeDoc(t, dir, "new.json", []Result{
		{Name: "BenchmarkZeroOneScalarVsBits/bits-1", NsPerOp: 110},
		{Name: "BenchmarkHalverEpsilon/bits-1", NsPerOp: 170}, // faster is always fine
		{Name: "BenchmarkBrandNew", NsPerOp: 5},               // new benches never fail
	})
	var buf strings.Builder
	failures, err := Diff(&buf, old, nu, defaultGuard, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 0 {
		t.Fatalf("failures = %d, want 0\n%s", failures, buf.String())
	}
	if !strings.Contains(buf.String(), "ok: 2 guarded") {
		t.Fatalf("expected 2 guarded benchmarks in summary:\n%s", buf.String())
	}
}

func TestDiffGuardedMissing(t *testing.T) {
	dir := t.TempDir()
	old := writeDoc(t, dir, "old.json", []Result{
		{Name: "BenchmarkZeroOneScalarVsBits/bits-1", NsPerOp: 100},
	})
	nu := writeDoc(t, dir, "new.json", []Result{
		{Name: "BenchmarkSomethingElse", NsPerOp: 1},
	})
	var buf strings.Builder
	failures, err := Diff(&buf, old, nu, defaultGuard, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 1 {
		t.Fatalf("a guarded benchmark vanishing must fail the diff; got %d\n%s", failures, buf.String())
	}
}

func TestDiffRecordedGuardUnion(t *testing.T) {
	// The baseline was recorded with a guard protecting BenchmarkLegacy;
	// the diff runs with a narrower -guard that no longer matches it.
	// The recorded guard must still protect it: vanishing fails.
	dir := t.TempDir()
	old := writeDocGuard(t, dir, "old.json", "BenchmarkLegacy$", []Result{
		{Name: "BenchmarkLegacy-1", NsPerOp: 100},
		{Name: "BenchmarkOther-1", NsPerOp: 100},
	})
	nu := writeDoc(t, dir, "new.json", []Result{
		{Name: "BenchmarkOther-1", NsPerOp: 100},
	})
	var buf strings.Builder
	failures, err := Diff(&buf, old, nu, defaultGuard, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if failures != 1 {
		t.Fatalf("a benchmark guarded at record time vanished; want 1 failure, got %d\n%s", failures, buf.String())
	}

	// An invalid recorded guard must surface as an error, not be ignored.
	bad := writeDocGuard(t, dir, "bad.json", "(", []Result{{Name: "BenchmarkX", NsPerOp: 1}})
	if _, err := Diff(&strings.Builder{}, bad, nu, defaultGuard, 0.15); err == nil {
		t.Fatal("expected an error for an invalid recorded guard regexp")
	}
}

func TestDiffBadGuardRegexp(t *testing.T) {
	dir := t.TempDir()
	p := writeDoc(t, dir, "x.json", []Result{{Name: "BenchmarkX", NsPerOp: 1}})
	if _, err := Diff(&strings.Builder{}, p, p, "(", 0.15); err == nil {
		t.Fatal("expected an error for an invalid -guard regexp")
	}
}

// writeBench records a minimal benchjson document.
func writeBench(t *testing.T, dir, name string, ns map[string]float64) string {
	t.Helper()
	var doc Doc
	for n, v := range ns {
		doc.Benchmarks = append(doc.Benchmarks, Result{Name: n, NsPerOp: v})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBenchTable(t *testing.T) {
	dir := t.TempDir()
	old := writeBench(t, dir, "BENCH_PR2.json", map[string]float64{
		"BenchmarkKernel/bits-8": 100,
		"BenchmarkRetired-8":     50,
	})
	nu := writeBench(t, dir, "BENCH_PR6.json", map[string]float64{
		"BenchmarkKernel/bits-1": 80, // GOMAXPROCS suffix differs; must line up
		"BenchmarkFresh-1":       10,
	})
	var buf strings.Builder
	if err := Table(&buf, []string{old, nu}, ""); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"| benchmark | PR2 ns/op | PR6 ns/op | PR2→PR6 |", // labels from filenames
		"| Kernel/bits | 100 | 80 | -20.0% |",             // suffixes stripped, delta computed
		"new",                                             // Fresh only in PR6
		"gone",                                            // Retired only in PR2
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table lacks %q:\n%s", want, out)
		}
	}

	// The filter restricts rows.
	buf.Reset()
	if err := Table(&buf, []string{old, nu}, "Kernel"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Fresh") {
		t.Errorf("filtered table still contains Fresh:\n%s", buf.String())
	}
}
