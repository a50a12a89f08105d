// Command benchjson converts `go test -bench` text output (read from
// stdin or the files given as arguments) into a JSON document mapping
// benchmark names to their measurements — ns/op, MB/s, B/op,
// allocs/op, and any custom metrics such as inputs/s. The header lines
// (goos, goarch, pkg, cpu) are carried into the document so a recorded
// file is self-describing.
//
// Usage:
//
//	go test -run XXX -bench . -benchmem . | benchjson -o BENCH.json
//	benchjson -diff old.json new.json [-threshold 0.15] [-guard REGEX]
//	benchjson -table [-filter REGEX] BENCH_PR2.json BENCH_PR4.json ...
//
// Used by `make bench-json` to record the per-PR benchmark snapshots
// (BENCH_PR*.json) referenced from EXPERIMENTS.md.
//
// With -table, the recorded files are rendered as a markdown ns/op
// trajectory, one column per file and a first→last delta, ready to
// paste into EXPERIMENTS.md; -filter restricts the rows.
//
// With -diff, two recorded files are compared benchmark by benchmark
// (ns/op, with the -GOMAXPROCS name suffix stripped so runs at
// different -cpu settings line up). Benchmarks whose names match the
// -guard regexp — by default the SWAR 0-1 evaluation kernels, the
// hot path every exhaustive verification sits on — fail the diff when
// they regress by more than -threshold (a fraction; 0.15 = 15%) or
// disappear from the new file. Exit status 1 on failure, 0 otherwise.
// Used by `make bench-diff` (against the committed baseline, only
// meaningful on the machine that recorded it) and `make bench-smoke`
// (two fresh runs on the same machine, any machine).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	MBPerSec    float64            `json:"mb_per_s,omitempty"`
	BytesPerOp  float64            `json:"b_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"` // custom ReportMetric units
}

// Doc is the whole report. Guard records the guard regexp in force
// when the file was recorded, so a later -diff protects everything the
// baseline protected even if the flag (or defaultGuard) has since been
// narrowed: Diff guards the union of the old file's Guard and the
// current -guard.
type Doc struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Guard      string   `json:"guard,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

// defaultGuard protects the perf-critical kernels: the bit-sliced
// (SWAR) 0-1 evaluation kernels — a regression there slows every
// exhaustive sorting check in the repo — with the ε readout at the
// daemon's halver shape and on the parallel path, the generated sorting
// kernels plus their shufflenet.Sort dispatch path, the library's
// user-facing fast path (PR 6), the daemon's end-to-end request
// legs — the coalesced probe and warm-memo optimum paths (PR 8) —
// and its first layers, the body parsers and the table mount, the
// adversary's recovery of the iterated reverse delta structure, the
// construction of the search workload's circuit set (AddLevel's level
// check), the durable-search machinery: the spill-backed transposition
// table and the checkpoint/resume paths of the optimum search —
// the vertical batch sorting entry points plus their raw columnar
// kernels, and the optimum search itself: warm, without a table, and
// cold on the dense circuits of the perfbench search workload.
const defaultGuard = `BenchmarkZeroOneScalarVsBits/(fraction-)?bits$|BenchmarkHalverEpsilon/(bits|serve|n20)$|BenchmarkGeneratedSort/|BenchmarkSortDispatch/|BenchmarkServe|BenchmarkParse/|BenchmarkDecomposeIterated/|BenchmarkBuildLevels$|BenchmarkNewMemo/|BenchmarkMemoSpill/|BenchmarkOptimalResume/|BenchmarkOptimalCanonMemo/|BenchmarkSortBatch/|BenchmarkBatchKernel/`

func main() {
	out := flag.String("o", "", "output path (default stdout)")
	diff := flag.Bool("diff", false, "compare two recorded JSON files: benchjson -diff old.json new.json")
	threshold := flag.Float64("threshold", 0.15, "with -diff: allowed fractional ns/op regression for guarded benchmarks")
	guard := flag.String("guard", defaultGuard, "regexp of benchmark names whose regressions fail a -diff (empty = report only); when recording, stamped into the document so later diffs keep guarding it")
	table := flag.Bool("table", false, "render recorded JSON files as a markdown ns/op trajectory table: benchjson -table a.json b.json ...")
	filter := flag.String("filter", "", "with -table: regexp restricting which benchmarks appear (default: all)")
	flag.Parse()

	if *table {
		if flag.NArg() == 0 {
			fail("-table needs at least one recorded file")
		}
		if err := Table(os.Stdout, flag.Args(), *filter); err != nil {
			fail(err.Error())
		}
		return
	}

	if *diff {
		if flag.NArg() != 2 {
			fail("-diff needs exactly two files: old.json new.json")
		}
		failures, err := Diff(os.Stdout, flag.Arg(0), flag.Arg(1), *guard, *threshold)
		if err != nil {
			fail(err.Error())
		}
		if failures > 0 {
			os.Exit(1)
		}
		return
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		var readers []io.Reader
		for _, path := range flag.Args() {
			f, err := os.Open(path)
			if err != nil {
				fail(err.Error())
			}
			defer f.Close()
			readers = append(readers, f)
		}
		in = io.MultiReader(readers...)
	}

	doc, err := Parse(in)
	if err != nil {
		fail(err.Error())
	}
	if len(doc.Benchmarks) == 0 {
		fail("no Benchmark lines found in input")
	}
	doc.Guard = *guard

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err.Error())
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fail(err.Error())
	}
}

// Parse reads `go test -bench` output. Benchmark lines have the shape
//
//	BenchmarkName-8   1234   5678 ns/op   12.3 MB/s   45 B/op   6 allocs/op
//
// i.e. name, iteration count, then (value, unit) pairs; custom metrics
// from b.ReportMetric appear as additional pairs.
func Parse(r io.Reader) (*Doc, error) {
	doc := &Doc{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			doc.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue // e.g. a bare "BenchmarkFoo" header before subbenchmarks
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Name: fields[0], Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in line %q", fields[i], line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "MB/s":
				res.MBPerSec = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			default:
				if res.Extra == nil {
					res.Extra = map[string]float64{}
				}
				res.Extra[unit] = v
			}
		}
		doc.Benchmarks = append(doc.Benchmarks, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(doc.Benchmarks, func(i, j int) bool {
		return doc.Benchmarks[i].Name < doc.Benchmarks[j].Name
	})
	return doc, nil
}

// stripProcs removes go test's trailing -GOMAXPROCS suffix
// ("BenchmarkFoo/bar-8" → "BenchmarkFoo/bar") so files recorded at
// different -cpu settings still line up. Names without the suffix
// (GOMAXPROCS=1 runs) pass through unchanged.
func stripProcs(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// loadDoc reads a recorded benchjson file into a name→Result map
// (names normalized via stripProcs), plus the guard regexp stamped at
// record time (empty for files recorded before guards were stamped).
func loadDoc(path string) (map[string]Result, []string, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, "", err
	}
	defer f.Close()
	var doc Doc
	if err := json.NewDecoder(f).Decode(&doc); err != nil {
		return nil, nil, "", fmt.Errorf("%s: %v", path, err)
	}
	m := make(map[string]Result, len(doc.Benchmarks))
	var names []string
	for _, b := range doc.Benchmarks {
		name := stripProcs(b.Name)
		if _, dup := m[name]; !dup {
			names = append(names, name)
		}
		m[name] = b
	}
	return m, names, doc.Guard, nil
}

// Diff compares two recorded files and reports per-benchmark ns/op
// deltas. It returns the number of guard failures: guarded benchmarks
// that regressed past the threshold or vanished from the new file.
// A benchmark is guarded if it matches the -guard regexp OR the guard
// stamped into the old file when it was recorded — so a baseline's
// protections cannot be silently dropped by narrowing the flag, and a
// previously guarded benchmark that disappears still fails the diff.
// Benchmarks only present on one side are reported but never fail the
// diff unless guarded and missing from the new side — new benchmarks
// arriving is the normal course of a growing suite.
func Diff(w io.Writer, oldPath, newPath, guard string, threshold float64) (int, error) {
	var guardRE *regexp.Regexp
	if guard != "" {
		var err error
		if guardRE, err = regexp.Compile(guard); err != nil {
			return 0, fmt.Errorf("bad -guard regexp: %v", err)
		}
	}
	oldM, oldNames, oldGuard, err := loadDoc(oldPath)
	if err != nil {
		return 0, err
	}
	var oldGuardRE *regexp.Regexp
	if oldGuard != "" && oldGuard != guard {
		if oldGuardRE, err = regexp.Compile(oldGuard); err != nil {
			return 0, fmt.Errorf("bad guard regexp recorded in %s: %v", oldPath, err)
		}
	}
	newM, newNames, _, err := loadDoc(newPath)
	if err != nil {
		return 0, err
	}

	failures := 0
	guarded := 0
	fmt.Fprintf(w, "%-55s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, name := range oldNames {
		o := oldM[name]
		isGuarded := (guardRE != nil && guardRE.MatchString(name)) ||
			(oldGuardRE != nil && oldGuardRE.MatchString(name))
		n, ok := newM[name]
		if !ok {
			tag := ""
			if isGuarded {
				tag = "  FAIL (guarded benchmark missing)"
				failures++
			}
			fmt.Fprintf(w, "%-55s %14.1f %14s %9s%s\n", name, o.NsPerOp, "-", "gone", tag)
			continue
		}
		delta := 0.0
		if o.NsPerOp > 0 {
			delta = n.NsPerOp/o.NsPerOp - 1
		}
		tag := ""
		if isGuarded {
			guarded++
			tag = "  [guarded]"
			if delta > threshold {
				tag = fmt.Sprintf("  FAIL (>%+.0f%%)", threshold*100)
				failures++
			}
		}
		fmt.Fprintf(w, "%-55s %14.1f %14.1f %+8.1f%%%s\n", name, o.NsPerOp, n.NsPerOp, delta*100, tag)
	}
	for _, name := range newNames {
		if _, ok := oldM[name]; !ok {
			fmt.Fprintf(w, "%-55s %14s %14.1f %9s\n", name, "-", newM[name].NsPerOp, "new")
		}
	}
	if failures > 0 {
		fmt.Fprintf(w, "FAIL: %d guarded benchmark(s) regressed more than %.0f%% (ns/op)\n", failures, threshold*100)
	} else {
		fmt.Fprintf(w, "ok: %d guarded benchmark(s) within %.0f%% of %s\n", guarded, threshold*100, oldPath)
	}
	return failures, nil
}

// Table renders a markdown ns/op trajectory across the given recorded
// files, one column per file (labeled from the filename:
// BENCH_PR6.json → PR6), one row per benchmark name present in any of
// them, with a first→last delta column. filter restricts rows to
// matching names ("" = all).
func Table(w io.Writer, files []string, filter string) error {
	var filterRE *regexp.Regexp
	if filter != "" {
		var err error
		if filterRE, err = regexp.Compile(filter); err != nil {
			return fmt.Errorf("bad -filter regexp: %v", err)
		}
	}
	labels := make([]string, len(files))
	cols := make([]map[string]Result, len(files))
	var order []string
	seen := map[string]bool{}
	for i, path := range files {
		labels[i] = strings.TrimPrefix(strings.TrimSuffix(filepath.Base(path), filepath.Ext(path)), "BENCH_")
		m, names, _, err := loadDoc(path)
		if err != nil {
			return err
		}
		cols[i] = m
		for _, name := range names {
			if !seen[name] && (filterRE == nil || filterRE.MatchString(name)) {
				seen[name] = true
				order = append(order, name)
			}
		}
	}
	sort.Strings(order)

	fmt.Fprintf(w, "| benchmark |")
	for _, l := range labels {
		fmt.Fprintf(w, " %s ns/op |", l)
	}
	fmt.Fprintf(w, " %s→%s |\n|---|", labels[0], labels[len(labels)-1])
	for range labels {
		fmt.Fprintf(w, "---:|")
	}
	fmt.Fprintf(w, "---:|\n")
	for _, name := range order {
		fmt.Fprintf(w, "| %s |", strings.TrimPrefix(name, "Benchmark"))
		for i := range cols {
			if r, ok := cols[i][name]; ok {
				fmt.Fprintf(w, " %s |", fmtNs(r.NsPerOp))
			} else {
				fmt.Fprintf(w, " — |")
			}
		}
		first, okF := cols[0][name]
		last, okL := cols[len(cols)-1][name]
		switch {
		case okF && okL && first.NsPerOp > 0:
			fmt.Fprintf(w, " %+.1f%% |\n", (last.NsPerOp/first.NsPerOp-1)*100)
		case okL:
			fmt.Fprintf(w, " new |\n")
		default:
			fmt.Fprintf(w, " gone |\n")
		}
	}
	return nil
}

func fmtNs(v float64) string {
	if v >= 100 || v == float64(int64(v)) {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "benchjson:", msg)
	os.Exit(1)
}
