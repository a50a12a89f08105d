package core

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"shufflenet/internal/randnet"
)

// TestOptimalShardMergeIdentity pins the distribution invariant the
// coordinator relies on: for any partition of the prefix frontier into
// [start, end) shards, the integer max of the shards' packed results
// equals the whole search's packed result — including uneven partitions
// and shard counts that do not divide 81.
func TestOptimalShardMergeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	circ := randnet.Levels(12, 6, rng)
	ctx := context.Background()

	want, err := OptimalNoncollidingPacked(ctx, circ, OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want == 0 {
		t.Fatal("full search packed 0")
	}

	prefixes := OptimalPrefixes(circ.Wires())
	for _, parts := range []int{2, 3, 7, prefixes} {
		var merged uint64
		for s := 0; s < parts; s++ {
			got, err := OptimalNoncollidingPacked(ctx, circ, OptimalOptions{
				ShardStart: s * prefixes / parts,
				ShardEnd:   (s + 1) * prefixes / parts,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got > merged {
				merged = got
			}
		}
		if merged != want {
			t.Fatalf("%d-way shard merge packed %#x, full search packed %#x", parts, merged, want)
		}
	}

	// An empty shard is legal and contributes nothing.
	if got, err := OptimalNoncollidingPacked(ctx, circ, OptimalOptions{ShardStart: 5, ShardEnd: 5}); err != nil || got != 0 {
		t.Fatalf("empty shard = (%#x, %v), want (0, nil)", got, err)
	}
	// Out-of-range bounds clamp rather than panic.
	if got, err := OptimalNoncollidingPacked(ctx, circ, OptimalOptions{ShardStart: -3, ShardEnd: prefixes + 99}); err != nil || got != want {
		t.Fatalf("clamped full shard = (%#x, %v), want (%#x, nil)", got, err, want)
	}
}

// TestOptimalSkipSeedResume pins the resume identity: interrupt a
// search after any number of completed prefixes, then restart skipping
// those prefixes and seeding the incumbent recorded when the last one
// finished — the resumed result must equal the uninterrupted search's,
// bit for bit. This is the core fact behind -resume (DESIGN.md
// decision 14); the CLI test layers SIGKILL and journal parsing on top.
func TestOptimalSkipSeedResume(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	circ := randnet.Levels(12, 6, rng)
	ctx := context.Background()

	// Workers: 1 scans prefixes in ascending order, so the checkpoint
	// log below is exactly what a journal of an interrupted single
	// worker run would hold.
	type ckpt struct {
		prefix    int
		incumbent uint64
	}
	var log []ckpt
	want, err := OptimalNoncollidingPacked(ctx, circ, OptimalOptions{
		Workers: 1,
		OnPrefixDone: func(p int, inc uint64) {
			log = append(log, ckpt{p, inc})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	prefixes := OptimalPrefixes(circ.Wires())
	if len(log) != prefixes {
		t.Fatalf("OnPrefixDone fired %d times, want %d", len(log), prefixes)
	}
	seen := make(map[int]bool)
	for i, c := range log {
		if c.prefix != i || seen[c.prefix] {
			t.Fatalf("checkpoint %d retired prefix %d (duplicate=%v); single worker must retire in order", i, c.prefix, seen[c.prefix])
		}
		seen[c.prefix] = true
	}
	if log[len(log)-1].incumbent != want {
		t.Fatalf("final checkpoint incumbent %#x != result %#x", log[len(log)-1].incumbent, want)
	}

	for _, cut := range []int{0, 1, 10, 40, prefixes - 1, prefixes} {
		done := make(map[int]bool, cut)
		var seed uint64
		for _, c := range log[:cut] {
			done[c.prefix] = true
			seed = c.incumbent
		}
		// OnPrefixDone runs on the workers, concurrently.
		var resumed atomic.Int64
		got, err := OptimalNoncollidingPacked(ctx, circ, OptimalOptions{
			SkipPrefix:    func(p int) bool { return done[p] },
			SeedIncumbent: seed,
			OnPrefixDone:  func(int, uint64) { resumed.Add(1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("resume after %d prefixes packed %#x, uninterrupted run packed %#x", cut, got, want)
		}
		if n := resumed.Load(); n != int64(prefixes) {
			t.Fatalf("resume after %d prefixes retired %d, want %d (skipped prefixes still check in)", cut, n, prefixes)
		}
	}
}

// TestDecodeOptimalWitnessRoundTrip: the packed value decodes to
// exactly the triple the classic API returns.
func TestDecodeOptimalWitnessRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	circ := randnet.Levels(10, 6, rng)
	wantSize, wantP, wantSet, _ := OptimalNoncollidingOpt(context.Background(), circ, OptimalOptions{})
	packed, err := OptimalNoncollidingPacked(context.Background(), circ, OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	size, p, set := DecodeOptimalWitness(circ.Wires(), packed)
	if size != wantSize || !p.Equal(wantP) {
		t.Fatalf("decode = (%d, %v), want (%d, %v)", size, p, wantSize, wantP)
	}
	if len(set) != len(wantSet) {
		t.Fatalf("set = %v, want %v", set, wantSet)
	}
	for i := range set {
		if set[i] != wantSet[i] {
			t.Fatalf("set = %v, want %v", set, wantSet)
		}
	}
}
