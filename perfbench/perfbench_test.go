package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesTables pins BENCHMARK.json to the metric
// tables the program prints from.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := readBenchmark(t)
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, the program %d/%d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
}

// TestWorkloadsShort runs every workload the program implements,
// including serve-fresh, which BENCHMARK.json leaves out, briefly in
// both modes and checks what it prints: every named metric with its
// unit, the fingerprint, and error_ratio 0.
func TestWorkloadsShort(t *testing.T) {
	bf := readBenchmark(t)
	seconds := "2"
	if testing.Short() {
		seconds = "0.5"
	}
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", name, "--seed", "3", "--seconds", seconds, "--trace", trace, "--out", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int64
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d; stderr: %s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range bf.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bf.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					got, ok := res.Metrics[name]
					if !ok || got.Unit != unit {
						t.Errorf("metric %s: printed %+v (present %v), want unit %s", name, got, ok, unit)
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, got.Value)
					}
				}
				tagged := map[string]map[string]any{}
				for _, l := range lines[:len(lines)-1] {
					if tag, body, ok := strings.Cut(l, " "); ok {
						var v map[string]any
						if json.Unmarshal([]byte(body), &v) == nil {
							tagged[tag] = v
						}
					}
				}
				for _, k := range []string{"cpu", "nproc", "gomaxprocs", "go", "batch_simd", "obs_enabled"} {
					if _, ok := tagged["fingerprint"][k]; !ok {
						t.Errorf("fingerprint lacks %s: %v", k, tagged["fingerprint"])
					}
				}
				if er, ok := tagged["summary"]["error_ratio"].(float64); !ok || er != 0 {
					t.Errorf("error_ratio = %v, want 0", tagged["summary"]["error_ratio"])
				}
			})
		}
	}
}
