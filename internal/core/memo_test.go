package core

import (
	"context"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"shufflenet/internal/pattern"
)

func TestMemoTableBasics(t *testing.T) {
	m := NewMemo(1 << 16)
	if m.Stats().Bytes <= 0 || m.Stats().Bytes > 1<<16 {
		t.Fatalf("table bytes %d out of budget", m.Stats().Bytes)
	}
	var st memoStats
	if _, ok := m.probe(1, 2, 5, &st); ok {
		t.Fatal("hit on empty table")
	}
	m.store(1, 2, 5, 7, &st)
	ub, ok := m.probe(1, 2, 5, &st)
	if !ok || ub != 7 {
		t.Fatalf("probe after store: %d,%v want 7,true", ub, ok)
	}
	// Same key at a different step is a different entry.
	if _, ok := m.probe(1, 2, 6, &st); ok {
		t.Fatal("step is not part of the key")
	}
	// A matching store keeps the tighter bound.
	m.store(1, 2, 5, 9, &st)
	if ub, _ := m.probe(1, 2, 5, &st); ub != 7 {
		t.Fatalf("looser store overwrote: %d want 7", ub)
	}
	m.store(1, 2, 5, 3, &st)
	if ub, _ := m.probe(1, 2, 5, &st); ub != 3 {
		t.Fatalf("tighter store ignored: %d want 3", ub)
	}
	// Two-slot bucket: a third distinct entry on the same bucket evicts
	// the deeper (larger-step) slot and keeps the shallower.
	m.store(1, 20, 9, 1, &st) // same h1 -> same shard and bucket
	m.store(1, 30, 2, 4, &st) // bucket full: step-9 slot is the victim
	if _, ok := m.probe(1, 20, 9, &st); ok {
		t.Fatal("deeper slot survived eviction")
	}
	if ub, ok := m.probe(1, 2, 5, &st); !ok || ub != 3 {
		t.Fatal("shallower slot did not survive eviction")
	}
	if ub, ok := m.probe(1, 30, 2, &st); !ok || ub != 4 {
		t.Fatal("incoming entry not installed")
	}
	m.flush(&st)
	s := m.Stats()
	if s.Hits == 0 || s.Misses == 0 || s.Stores == 0 || s.Evictions != 1 {
		t.Fatalf("stats %+v look wrong", s)
	}
	// nil Memo is inert.
	var nilM *Memo
	nilM.flush(&st)
	if nilM.Stats() != (MemoStats{}) {
		t.Fatal("nil Memo stats not empty")
	}
}

// The satellite differential: on every n <= 12 test circuit, the
// memo-on search, the memo-off search, and the PR 4 exhaustive oracle
// must return byte-identical results — size, witness pattern, and set —
// at 1 and at 8 workers. A single Memo shared across all circuits (the
// experiment-cell usage) must not change anything either.
func TestOptimalMemoModesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	shared := NewMemo(1 << 20)
	for ci, c := range testCircuits(12, rng) {
		wantSize, wantP, wantSet := bruteOptimalNoncolliding(c)
		check := func(mode string, size int, p pattern.Pattern, set []int, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("circuit %d %s: %v", ci, mode, err)
			}
			if size != wantSize || !p.Equal(wantP) || len(set) != len(wantSet) {
				t.Fatalf("circuit %d %s: (%d,%v) oracle (%d,%v)", ci, mode, size, p, wantSize, wantP)
			}
			for i := range set {
				if set[i] != wantSet[i] {
					t.Fatalf("circuit %d %s: set %v oracle %v", ci, mode, set, wantSet)
				}
			}
		}
		ctx := context.Background()
		for _, workers := range []int{1, 8} {
			s, p, set, err := OptimalNoncollidingOpt(ctx, c, OptimalOptions{Workers: workers})
			check("memo-auto", s, p, set, err)
			s, p, set, err = OptimalNoncollidingOpt(ctx, c, OptimalOptions{Workers: workers, NoMemo: true})
			check("memo-off", s, p, set, err)
			s, p, set, err = OptimalNoncollidingOpt(ctx, c, OptimalOptions{Workers: workers, Memo: shared})
			check("memo-shared", s, p, set, err)
		}
		// A second pass over the now-warm shared table: probes hit
		// immediately and still must not change the answer.
		s, p, set, err := OptimalNoncollidingOpt(ctx, c, OptimalOptions{Workers: 2, Memo: shared})
		check("memo-warm", s, p, set, err)
	}
	if st := shared.Stats(); st.Stores == 0 {
		t.Fatal("shared memo never stored anything across the whole suite")
	}
}

// TestNewMemoDegenerateBudgets: budgets below MinMemoBytes — including
// the zero and negative values a server flag or env var can produce —
// must clamp to a small working table, never hang (a negative budget
// used to sign-flip through a uint64 conversion and spin the sizing
// loop forever) and never yield a zero-slot table.
func TestNewMemoDegenerateBudgets(t *testing.T) {
	cases := []struct {
		name  string
		bytes int64
		// Pinned geometry (0 = unpinned): the daemon default must
		// keep the size and slot count it had on the heap.
		wantBytes, wantCapacity int64
	}{
		{"negative-large", -(1 << 40), 0, 0},
		{"negative-one", -1, 0, 0},
		{"zero", 0, 0, 0},
		{"one", 1, 0, 0},
		{"just-below-min", MinMemoBytes - 1, 0, 0},
		{"exactly-min", MinMemoBytes, 0, 0},
		{"modest", 1 << 20, 0, 0},
		{"serve-default", 64 << 20, 48 << 20, 4 << 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan *Memo, 1)
			go func() { done <- NewMemo(tc.bytes) }() // guard against the historical hang
			var m *Memo
			select {
			case m = <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("NewMemo(%d) hung", tc.bytes)
			}
			st := m.Stats()
			if st.Capacity <= 0 {
				t.Fatalf("NewMemo(%d): capacity %d, want > 0", tc.bytes, st.Capacity)
			}
			if st.Bytes < MinMemoBytes/2 {
				// The budget rounds down to a power-of-two bucket count,
				// so the realized size may sit below MinMemoBytes — but
				// never below half of it.
				t.Fatalf("NewMemo(%d): realized %d bytes, below the documented floor", tc.bytes, st.Bytes)
			}
			if tc.bytes > 0 && tc.bytes >= MinMemoBytes && st.Bytes > tc.bytes {
				t.Fatalf("NewMemo(%d): realized %d bytes exceeds the budget", tc.bytes, st.Bytes)
			}
			if tc.wantBytes != 0 && (st.Bytes != tc.wantBytes || st.Capacity != tc.wantCapacity) {
				t.Fatalf("NewMemo(%d): %d bytes, %d slots; want %d bytes, %d slots",
					tc.bytes, st.Bytes, st.Capacity, tc.wantBytes, tc.wantCapacity)
			}
			// The table must actually work.
			var ms memoStats
			m.store(3, 4, 2, 5, &ms)
			if ub, ok := m.probe(3, 4, 2, &ms); !ok || ub != 5 {
				t.Fatalf("NewMemo(%d): store/probe round trip failed (%d,%v)", tc.bytes, ub, ok)
			}
		})
	}
}

// TestMemoConcurrentHammer: one minimum-size memo shared by many
// goroutines doing interleaved probe/store/flush/Stats — the daemon's
// cross-request sharing pattern. Run under -race this proves the
// lock-striping and the stats flushing are race-clean; functionally it
// checks that flushed counters balance and a store the goroutine just
// made is immediately visible to its own probe.
func TestMemoConcurrentHammer(t *testing.T) {
	m := NewMemo(0) // minimum-size table: maximal contention and eviction
	const (
		workers = 16
		rounds  = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var st memoStats
			for i := 0; i < rounds; i++ {
				h1 := uint64(g)<<32 ^ uint64(i)*0x9e3779b97f4a7c15
				h2 := h1 ^ 0xdeadbeef
				step := i % 30
				ub := uint8(i % 20)
				m.store(h1, h2, step, ub, &st)
				if got, ok := m.probe(h1, h2, step, &st); ok && got > ub {
					t.Errorf("probe returned %d, looser than the %d just stored", got, ub)
					return
				}
				m.probe(h1^1, h2, step, &st) // mostly a miss
				if i%64 == 0 {
					m.flush(&st)
					m.Stats()
				}
			}
			m.flush(&st)
		}(g)
	}
	wg.Wait()
	st := m.Stats()
	if st.Stores == 0 || st.Misses == 0 {
		t.Fatalf("hammer produced no traffic: %+v", st)
	}
	if st.Entries < 0 || st.Entries > st.Capacity {
		t.Fatalf("entries %d out of range [0,%d]", st.Entries, st.Capacity)
	}
	if st.Stores > int64(workers*rounds) {
		t.Fatalf("stores %d exceed the %d store calls made", st.Stores, workers*rounds)
	}
}

// A tiny table forces constant eviction; the answer must not change.
func TestOptimalMemoTinyTableEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	tiny := NewMemo(1) // clamped up to MinMemoBytes: the smallest legal table
	for ci, c := range testCircuits(10, rng) {
		wantSize, wantP, _ := bruteOptimalNoncolliding(c)
		s, p, _, err := OptimalNoncollidingOpt(context.Background(), c, OptimalOptions{Workers: 4, Memo: tiny})
		if err != nil || s != wantSize || !p.Equal(wantP) {
			t.Fatalf("circuit %d: (%d,%v,%v) oracle (%d,%v)", ci, s, err, p, wantSize, wantP)
		}
	}
}

// mappedMemo builds a table large enough to be mapped and skips the
// test where the platform cannot map one.
func mappedMemo(t *testing.T) *Memo {
	t.Helper()
	m := NewMemo(4 * memoMapMin)
	if m.shards[0].arena == nil {
		t.Skip("no anonymous mappings on this platform")
	}
	return m
}

// TestMemoTableMappedShardEdges: the shards of a mapped table are cut
// from one array, so a mis-cut (overlapping shards, a short or long
// shard) would alias buckets of neighbouring shards. Fill both slots of
// the first and the last bucket of every shard, then probe them all:
// each entry must come back, and no store may have evicted another. A
// spill table's array starts after the file header, where a mis-cut
// could hide behind the offset, so that table is closed and reopened
// after the fill: the header must still validate and every entry must
// come back again.
func TestMemoTableMappedShardEdges(t *testing.T) {
	t.Run("anon", func(t *testing.T) {
		m := mappedMemo(t)
		checkShardEdges(t, m, fillShardEdges(t, m))
	})
	t.Run("file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "edges.spill")
		m, _, err := OpenSpillMemo(path, 4*memoMapMin, "test")
		if err != nil {
			t.Fatal(err)
		}
		es := fillShardEdges(t, m)
		checkShardEdges(t, m, es)
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		m, warm, err := OpenSpillMemo(path, 4*memoMapMin, "test")
		if err != nil || !warm {
			t.Fatalf("reopen: warm = %v, err = %v", warm, err)
		}
		defer m.Close()
		checkShardEdges(t, m, es)
	})
}

// memoEntry is one stored state: its hashes, step and bound.
type memoEntry struct {
	h1, h2 uint64
	step   int
	ub     uint8
}

// fillShardEdges stores both slots of the first and the last bucket of
// every shard and returns the entries stored.
func fillShardEdges(t *testing.T, m *Memo) []memoEntry {
	t.Helper()
	per := m.mask + 1
	for i := range m.shards {
		if got := uint64(len(m.shards[i].buckets)); got != per {
			t.Fatalf("shard %d has %d buckets, want %d", i, got, per)
		}
	}
	var es []memoEntry
	for s := uint64(0); s < memoShardN; s++ {
		for _, b := range []uint64{0, m.mask} {
			h1 := s<<(64-memoShardBits) | b
			for slot := uint64(0); slot < 2; slot++ {
				es = append(es, memoEntry{h1, h1<<1 | slot, int(s % 50), uint8(b+slot) % 64})
			}
		}
	}
	var st memoStats
	for _, e := range es {
		m.store(e.h1, e.h2, e.step, e.ub, &st)
	}
	m.flush(&st)
	if s := m.Stats(); s.Evictions != 0 || s.Entries != int64(len(es)) {
		t.Fatalf("stats %+v: want %d entries and no evictions", s, len(es))
	}
	return es
}

// checkShardEdges probes every entry fillShardEdges stored.
func checkShardEdges(t *testing.T, m *Memo, es []memoEntry) {
	t.Helper()
	var st memoStats
	for _, e := range es {
		if ub, ok := m.probe(e.h1, e.h2, e.step, &st); !ok || ub != e.ub {
			t.Fatalf("entry (h1=%#x, h2=%#x) read back (%d,%v), want (%d,true)", e.h1, e.h2, ub, ok, e.ub)
		}
	}
}

// TestMemoTableMappedRelease: dropped mapped tables are unmapped once
// the collector finds them unreachable, and the mapped-bytes gauge
// returns to where it started. No other test keeps a table, so the
// gauge starts from zero once earlier tests' tables are collected.
func TestMemoTableMappedRelease(t *testing.T) {
	awaitMapped(t, 0)
	tables := make([]*Memo, 16)
	var st memoStats
	for i := range tables {
		tables[i] = mappedMemo(t)
		tables[i].store(1, 2, 3, 4, &st) // touch a page
	}
	size := tables[0].Stats().Bytes
	if got := metMemoMapped.Value(); got != 16*size {
		t.Fatalf("gauge %d after mapping 16 tables of %d bytes", got, size)
	}
	// A reachable table stays mapped through collections: probing an
	// unmapped one would fault.
	runtime.GC()
	runtime.GC()
	for i, m := range tables {
		if ub, ok := m.probe(1, 2, 3, &st); !ok || ub != 4 {
			t.Fatalf("table %d lost its entry across a collection: (%d,%v)", i, ub, ok)
		}
	}
	if got := metMemoMapped.Value(); got != 16*size {
		t.Fatalf("gauge %d with 16 live tables of %d bytes", got, size)
	}
	awaitMapped(t, 0)
}

// awaitMapped runs the collector until the mapped-bytes gauge reads
// want, failing after ten seconds.
func awaitMapped(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for metMemoMapped.Value() != want {
		if time.Now().After(deadline) {
			t.Fatalf("mapped-bytes gauge stuck at %d, want %d", metMemoMapped.Value(), want)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}
