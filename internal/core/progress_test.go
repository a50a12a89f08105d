package core

import (
	"context"
	"testing"
	"time"

	"shufflenet/internal/delta"
	"shufflenet/internal/obs"
)

// TestOptimalProgressReadOnly is the determinism contract for the
// telemetry tentpole: attaching a running Progress engine to the
// optimum search changes nothing about its result — same size, same
// witness, byte for byte — while the incumbent-improvement events
// arrive with honest sizes.
func TestOptimalProgressReadOnly(t *testing.T) {
	circ := delta.Butterfly(4).ToNetwork()
	baseSize, baseP, _, err := OptimalNoncollidingOpt(context.Background(), circ, OptimalOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	var samples []*obs.Sample
	p := obs.NewProgress("test", "r", time.Hour)
	p.AddSink(obs.SinkFunc(func(s *obs.Sample) { samples = append(samples, s) }))
	p.Start()
	size, pp, _, err := OptimalNoncollidingOpt(context.Background(), circ, OptimalOptions{
		Workers: 4, Progress: p,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Emit() // drain the events the search buffered
	p.Stop()

	if size != baseSize || !pp.Equal(baseP) {
		t.Fatalf("telemetry changed the result: %d/%v vs %d/%v", size, pp, baseSize, baseP)
	}

	// The incumbent events carry size + packed witness; the best one
	// must match the returned optimum (CAS success order guarantees the
	// final improvement is the final incumbent).
	best := 0
	for _, s := range samples {
		for _, ev := range s.Events {
			if ev.Name != "incumbent" {
				continue
			}
			if v, ok := ev.Fields["size"].(int); ok && v > best {
				best = v
			}
			if _, ok := ev.Fields["packed"]; !ok {
				t.Fatal("incumbent event lacks the packed witness")
			}
		}
	}
	if best != size {
		t.Fatalf("best incumbent event size = %d, want the optimum %d", best, size)
	}
}

// TestOptimalProgressSampleFields samples mid-search state through the
// registered source and checks the frontier fields the status line and
// heartbeats are built from.
func TestOptimalProgressSampleFields(t *testing.T) {
	circ := delta.Butterfly(4).ToNetwork()
	p := obs.NewProgress("test", "r", time.Hour)
	p.AddSink(obs.SinkFunc(func(*obs.Sample) {}))
	p.Start()
	if _, _, _, err := OptimalNoncollidingOpt(context.Background(), circ, OptimalOptions{
		Workers: 2, Progress: p,
	}); err != nil {
		t.Fatal(err)
	}
	// After the search returns its source is unregistered: a sample
	// taken now must NOT carry search fields (no stale reads of dead
	// state).
	p.Emit()
	if after := p.Last(); after != nil {
		if _, ok := after.Fields["optimal.prefixes_total"]; ok {
			t.Fatalf("sample taken after the search still carries search fields: %+v", after.Fields)
		}
	}
	p.Stop()

	// Now hold the source open by sampling mid-search via the engine's
	// own ticker: a tight interval against the larger butterfly-5 search.
	p2 := obs.NewProgress("test", "r2", time.Millisecond)
	var got *obs.Sample
	p2.AddSink(obs.SinkFunc(func(s *obs.Sample) {
		if _, ok := s.Fields["optimal.prefixes_total"]; ok && got == nil {
			got = s
		}
	}))
	p2.Start()
	if _, _, _, err := OptimalNoncollidingOpt(context.Background(), delta.Butterfly(4).ToNetwork(), OptimalOptions{
		Workers: 1, Progress: p2,
	}); err != nil {
		t.Fatal(err)
	}
	p2.Stop()
	if got != nil {
		if got.Fields["optimal.prefixes_total"].(int64) != 81 {
			t.Fatalf("prefixes_total = %v, want 81 (3^4 roots)", got.Fields["optimal.prefixes_total"])
		}
		if done := got.Fields["optimal.prefixes_done"].(int64); done < 0 || done > 81 {
			t.Fatalf("prefixes_done = %d out of range", done)
		}
	}
	// got may legitimately be nil when the search beats the first tick;
	// the read-only test above already proves the source registers.
}

// TestTheorem41ProgressReadOnly checks the adversary path: Theorem41Prog
// with a live engine returns the identical analysis and reports block
// completion through its source.
func TestTheorem41ProgressReadOnly(t *testing.T) {
	it := delta.BitonicIterated(4)
	base, _ := Theorem41Ctx(context.Background(), it, 0)

	p := obs.NewProgress("test", "r", time.Hour)
	var samples []*obs.Sample
	p.AddSink(obs.SinkFunc(func(s *obs.Sample) { samples = append(samples, s) }))
	p.Start()
	an, err := Theorem41Prog(context.Background(), it, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Emit()
	p.Stop()

	if len(an.D) != len(base.D) || !an.P.Equal(base.P) {
		t.Fatalf("telemetry changed the analysis: |D|=%d vs %d", len(an.D), len(base.D))
	}
	blocks := 0
	for _, s := range samples {
		for _, ev := range s.Events {
			if ev.Name == "block" {
				blocks++
			}
		}
	}
	if blocks == 0 {
		t.Fatal("no block events arrived")
	}
	if blocks > it.Blocks() {
		t.Fatalf("%d block events for %d blocks", blocks, it.Blocks())
	}
}
