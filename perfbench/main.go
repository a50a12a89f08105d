// Command perfbench is shufflenet's end-to-end benchmark. One run
// executes one workload for a fixed time on inputs generated from a
// seed, checks every output outside the timed windows, and prints its
// metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"p50_ms": {"value": 1.2, "unit": "ms"}, ...}}
//
// Run it from the repository root through the build wrapper:
//
//	bash perfbench/run.sh --workload serve-repeat --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// replays the same seeded stream once untraced and once traced, writes
// the spans (JSONL) and a per-layer self-time summary under --out, and
// prints the per-layer metrics. README.md lists the workloads, why each
// was chosen, and which end-to-end metric each per-layer metric should
// move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"shufflenet/internal/obs"
	"shufflenet/sortkernels"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	out      string // directory for the traced run's span files
}

// report is what a workload hands back: its operation counts, the
// metrics of the mode it ran in, and notes for the summary line.
// failed counts refused, timed-out and non-200 operations plus wrong
// answers; wrong counts the wrong answers alone.
type report struct {
	attempted, failed, wrong int64
	metrics                  map[string]float64
	notes                    map[string]any
}

var workloads = map[string]func(config) (*report, error){
	"serve-repeat": func(c config) (*report, error) { return runServe(c, repeatSpec(c.seed)) },
	"serve-fresh":  func(c config) (*report, error) { return runServe(c, freshSpec()) },
	"search":       runSearch,
	"sortlib":      runSortlib,
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seconds float64
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: serve-repeat, serve-fresh, search or sortlib")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&seconds, "seconds", 10, "measured time per run")
	fs.IntVar(&trace, "trace", 0, "0 = end-to-end metrics, tracing off; 1 = traced run, per-layer metrics")
	fs.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[cfg.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}
	cfg.dur = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1

	rep, err := wl(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rep.attempted < 1 {
		fmt.Fprintln(stderr, "perfbench: no operation completed")
		return 1
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	res := result{
		Correct:   rep.wrong == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	for _, m := range want {
		v, ok := rep.metrics[m.name]
		if !ok && !cfg.trace {
			fmt.Fprintf(stderr, "perfbench: %s did not measure %s\n", cfg.workload, m.name)
			return 1
		}
		// A per-layer metric of a layer this workload does not reach
		// reads 0 (README.md names the workload each one belongs to).
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}

	w := bufio.NewWriter(stdout)
	line(w, "fingerprint", fingerprint())
	summary := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": seconds, "trace": trace,
		"attempted": rep.attempted, "failed": rep.failed, "wrong": rep.wrong,
		"error_ratio": ratio(float64(rep.failed), float64(rep.attempted)),
	}
	for k, v := range rep.notes {
		summary[k] = v
	}
	line(w, "summary", summary)
	line(w, "", res)
	if err := w.Flush(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// line writes v as one JSON line, prefixed by tag when tag is set.
func line(w io.Writer, tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Every value printed is a map or struct of numbers, strings
		// and bools; a failure is a NaN slipping through, a bug.
		panic(err)
	}
	if tag != "" {
		fmt.Fprintf(w, "%s ", tag)
	}
	fmt.Fprintf(w, "%s\n", b)
}

// fingerprint identifies the machine and build a result was measured
// on: results from different CPUs, core counts or SIMD paths are not
// comparable.
func fingerprint() map[string]any {
	return map[string]any{
		"cpu":         cpuModel(),
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"os_arch":     runtime.GOOS + "/" + runtime.GOARCH,
		"batch_simd":  sortkernels.BatchSIMDAvailable(),
		"obs_enabled": obs.Enabled(),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown"
// where that file does not exist).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
