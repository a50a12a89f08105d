package coord

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"shufflenet/internal/core"
	"shufflenet/internal/network"
	"shufflenet/internal/obs"
	"shufflenet/internal/randnet"
)

func testCircuit(t *testing.T, seed int64) *network.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return randnet.Levels(12, 6, rng)
}

// TestTwoWorkerByteIdentity is the headline invariant: two worker
// processes (here, goroutines over a real HTTP round-trip) splitting
// the frontier through the coordinator produce exactly the packed
// result — and therefore exactly the witness bytes — of a
// single-process search.
func TestTwoWorkerByteIdentity(t *testing.T) {
	circ := testCircuit(t, 3)
	ctx := context.Background()
	want, err := core.OptimalNoncollidingPacked(ctx, circ, core.OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}

	co, err := New(circ, Options{Chunk: 5, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	results := make([]uint64, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := RunWorker(ctx, srv.URL, WorkerOptions{Name: "w", Workers: 2})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			results[i] = got
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, got := range results {
		if got != want {
			t.Fatalf("worker %d returned %#x, single-process search packed %#x", i, got, want)
		}
	}
	packed, done := co.Result()
	if !done || packed != want {
		t.Fatalf("coordinator result (%#x, %v), want (%#x, true)", packed, done, want)
	}
	if !co.Verified() {
		t.Fatal("final witness failed verification")
	}
	wantSize, wantP, _ := core.DecodeOptimalWitness(circ.Wires(), want)
	size, p, _ := core.DecodeOptimalWitness(circ.Wires(), packed)
	if size != wantSize || !p.Equal(wantP) {
		t.Fatalf("witness (%d, %v), want (%d, %v)", size, p, wantSize, wantP)
	}
}

// TestStragglerRelease: a worker that leases a chunk and dies never
// reports; after the TTL the chunk is re-leased to a live worker and
// the search still completes with the exact result.
func TestStragglerRelease(t *testing.T) {
	circ := testCircuit(t, 9)
	ctx := context.Background()
	want, err := core.OptimalNoncollidingPacked(ctx, circ, core.OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}

	co, err := New(circ, Options{Chunk: 30, LeaseTTL: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// The doomed worker takes one lease and vanishes.
	doomed := co.lease("doomed")
	if doomed.Wait || doomed.Done {
		t.Fatalf("doomed lease = %+v", doomed)
	}
	time.Sleep(20 * time.Millisecond)

	srv := httptest.NewServer(co.Handler())
	defer srv.Close()
	got, err := RunWorker(ctx, srv.URL, WorkerOptions{Name: "live", Workers: 2, Poll: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("after straggler recovery packed %#x, want %#x", got, want)
	}
	if !co.Verified() {
		t.Fatal("final witness failed verification")
	}
}

// TestCoordinatorResume: a coordinator journaling chunk completions is
// "killed" (its journal taken as-is mid-run), a second coordinator
// resumes from the parsed frontier, and the merged result is exact.
func TestCoordinatorResume(t *testing.T) {
	circ := testCircuit(t, 17)
	ctx := context.Background()
	want, err := core.OptimalNoncollidingPacked(ctx, circ, core.OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := obs.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	fw := NewFrontierWriter(j)
	fp := core.NetworkFingerprint(circ)
	prefixes := core.OptimalPrefixes(circ.Wires())
	if err := fw.Init(fp, circ.Wires(), prefixes, 0); err != nil {
		t.Fatal(err)
	}

	// First coordinator: work exactly two chunks, then stop.
	co1, err := New(circ, Options{Chunk: 8, LeaseTTL: time.Minute, Writer: fw})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		lease := co1.lease("w")
		packed, err := core.OptimalNoncollidingPacked(ctx, circ, core.OptimalOptions{
			ShardStart: lease.Start, ShardEnd: lease.End, SeedIncumbent: lease.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := co1.report(reportReq{Lease: lease.Lease, Start: lease.Start, End: lease.End, Packed: packed}); err != nil {
			t.Fatal(err)
		}
	}
	co1.Close()
	j.Close()

	_, fr, err := OpenFrontier(nil, circ, path)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Net != fp || len(fr.Done) != 16 {
		t.Fatalf("frontier = net %s, %d done, want net %s, 16 done", fr.Net, len(fr.Done), fp)
	}

	co2, err := New(circ, Options{Chunk: 8, LeaseTTL: time.Minute, Frontier: fr})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	srv := httptest.NewServer(co2.Handler())
	defer srv.Close()
	got, err := RunWorker(ctx, srv.URL, WorkerOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("resumed coordinator packed %#x, want %#x", got, want)
	}
}

// A worker report is input from another process: a packed value that
// is no witness on the served circuit is refused before the merge can
// adopt it. A coordinator that inherits its whole frontier finishes
// at once, and a seed that is no witness — here a key digit that
// encodes no symbol — leaves it unverified rather than crashing it.
func TestForgedIncumbentRejected(t *testing.T) {
	circ := testCircuit(t, 3)
	n := circ.Wires()
	co, err := New(circ, Options{Chunk: 81, LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	lease := co.lease("w")
	if err := co.report(reportReq{Lease: lease.Lease, Start: lease.Start, End: lease.End, Packed: ^uint64(0)}); err == nil {
		t.Fatal("forged report accepted")
	}
	if packed, done := co.Result(); packed != 0 || done {
		t.Fatalf("after a refused report: result (%#x, %v), want (0, false)", packed, done)
	}

	prefixes := core.OptimalPrefixes(n)
	fr := &Frontier{Net: core.NetworkFingerprint(circ), N: n, Prefixes: prefixes, Done: map[int]bool{}, Seed: 1 << (2 * uint(n))}
	for p := 0; p < prefixes; p++ {
		fr.Done[p] = true
	}
	co2, err := New(circ, Options{Frontier: fr})
	if err != nil {
		t.Fatal(err)
	}
	defer co2.Close()
	if _, done := co2.Result(); !done || co2.Verified() {
		t.Fatalf("inherited forged seed: done %v, verified %v; want done and unverified", done, co2.Verified())
	}
}

func TestFrontierMismatchRejected(t *testing.T) {
	circ := testCircuit(t, 3)
	fr := &Frontier{Net: "not-this-network", N: circ.Wires(), Prefixes: core.OptimalPrefixes(circ.Wires()), Done: map[int]bool{}}
	if _, err := New(circ, Options{Frontier: fr}); err == nil {
		t.Fatal("coordinator accepted a frontier for a different network")
	}
}

func TestParseResumeJournal(t *testing.T) {
	const init = `{"type":"frontier_init","net":"abc","n":12,"prefixes":81,"seq":1}`
	parse := func(lines ...string) (*Frontier, error) {
		return ParseResumeJournal(strings.NewReader(strings.Join(lines, "\n")))
	}

	t.Run("accumulates", func(t *testing.T) {
		f, err := parse(
			init,
			`{"type":"heartbeat","seq":9}`, // foreign records ignored
			`{"type":"prefix_done","prefix":4,"incumbent":100,"seq":2}`,
			`{"type":"prefix_done","prefix":7,"incumbent":260,"seq":3}`,
			`{"type":"frontier_init","net":"abc","n":12,"prefixes":81,"seed":50,"seq":1}`,
			`{"type":"prefix_done","prefix":4,"incumbent":90,"seq":2}`,
		)
		if err != nil {
			t.Fatal(err)
		}
		if f.Net != "abc" || len(f.Done) != 2 || !f.Done[4] || !f.Done[7] {
			t.Fatalf("frontier = %+v", f)
		}
		if f.Seed != 260 {
			t.Fatalf("seed = %d, want the max incumbent 260", f.Seed)
		}
		if f.LastSeq != 3 {
			t.Fatalf("last seq = %d, want 3", f.LastSeq)
		}
		if !f.Skip(4) || f.Skip(5) {
			t.Fatal("Skip does not reflect the done set")
		}
	})

	t.Run("torn tail tolerated", func(t *testing.T) {
		f, err := parse(init,
			`{"type":"prefix_done","prefix":1,"incumbent":7,"seq":2}`,
			`{"type":"prefix_done","pre`)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Done) != 1 {
			t.Fatalf("done = %v", f.Done)
		}
	})

	t.Run("torn middle rejected", func(t *testing.T) {
		if _, err := parse(init, `{"type":"prefix`, init); err == nil {
			t.Fatal("corrupt mid-journal accepted")
		}
	})

	t.Run("mixed networks rejected", func(t *testing.T) {
		if _, err := parse(init, `{"type":"frontier_init","net":"zzz","n":12,"prefixes":81,"seq":1}`); err == nil {
			t.Fatal("mixed networks accepted")
		}
	})

	t.Run("orphan prefix_done rejected", func(t *testing.T) {
		if _, err := parse(`{"type":"prefix_done","prefix":1,"incumbent":7,"seq":1}`); err == nil {
			t.Fatal("prefix_done before frontier_init accepted")
		}
	})

	t.Run("out of range prefix rejected", func(t *testing.T) {
		if _, err := parse(init, `{"type":"prefix_done","prefix":81,"incumbent":7,"seq":2}`); err == nil {
			t.Fatal("out-of-range prefix accepted")
		}
	})

	t.Run("plain run journal rejected", func(t *testing.T) {
		if _, err := parse(`{"time":"2026-01-01T00:00:00Z","cmd":"adversary"}`); err == nil {
			t.Fatal("journal without frontier records accepted")
		}
	})
}

// TestFrontierWriterConcurrent: the search retires prefixes from
// worker goroutines; concurrent PrefixDone calls each journal one
// whole record with a sequence number of its own.
func TestFrontierWriterConcurrent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := obs.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewFrontierWriter(j)
	if err := w.Init("net-x", 12, 81, 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := g; p < 81; p += 4 {
				if err := w.PrefixDone(p, uint64(p)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := readFrontier(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Done) != 81 || f.Seed != 80 || f.LastSeq != 82 {
		t.Fatalf("frontier: %d done, seed %d, last seq %d; want 81, 80, 82", len(f.Done), f.Seed, f.LastSeq)
	}
}

// TestFrontierWriterRoundTrip: records written through the writer
// parse back to the same frontier, and a nil-journal writer is inert.
func TestFrontierWriterRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := obs.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewFrontierWriter(j)
	if err := w.Init("net-x", 12, 81, 5); err != nil {
		t.Fatal(err)
	}
	if err := w.PrefixDone(3, 500); err != nil {
		t.Fatal(err)
	}
	if err := w.Resumed("old.jsonl", 9, 1, 81, 500); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := readFrontier(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Net != "net-x" || f.Seed != 500 || !f.Done[3] || f.LastSeq != 2 {
		t.Fatalf("frontier = %+v", f)
	}

	var inert *FrontierWriter
	if err := inert.PrefixDone(0, 0); err != nil {
		t.Fatal("nil writer errored")
	}
	if err := NewFrontierWriter(nil).Init("", 0, 0, 0); err != nil {
		t.Fatal("nil-journal writer errored")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
}
