package core

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"shufflenet/internal/randnet"
)

// TestSpillBudgetDegenerate is the table-driven degenerate-budget gate
// for the spill path: every budget — including zero and negative
// values, which reach OpenSpillMemo unvalidated from CLI flags — goes
// through NewMemo's clamp, so it must open a working table of exactly
// NewMemo's size in a file whose size matches its own header geometry.
func TestSpillBudgetDegenerate(t *testing.T) {
	cases := []struct {
		name   string
		budget int64
	}{
		{"negative", -1},
		{"very negative", -1 << 40},
		{"zero", 0},
		{"one byte", 1},
		{"header only", spillHdrSize},
		{"one under floor", MinMemoBytes - 1},
		{"floor", MinMemoBytes},
		{"odd budget", MinMemoBytes + 12345},
		{"1 MiB", 1 << 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "spill.bin")
			m, warm, err := OpenSpillMemo(path, tc.budget, "test")
			if err != nil {
				t.Fatalf("budget %d: %v", tc.budget, err)
			}
			defer m.Close()
			if warm {
				t.Fatal("fresh file reported warm")
			}
			if got, want := m.Stats().Bytes, NewMemo(tc.budget).Stats().Bytes; got != want {
				t.Fatalf("budget %d: table of %d bytes, NewMemo's is %d", tc.budget, got, want)
			}
			per := int(m.mask + 1)
			hdr, err := validateSpillHeader(path, m.spill.Bytes(), "test")
			if err != nil || hdr != per {
				t.Fatalf("header geometry (%d, %v), table has %d buckets per shard", hdr, err, per)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != spillFileSize(per) || st.Size() != spillHdrSize+m.Stats().Bytes {
				t.Fatalf("file size %d, geometry needs %d", st.Size(), spillFileSize(per))
			}
			var ms memoStats
			m.store(3, 4, 2, 5, &ms)
			if ub, ok := m.probe(3, 4, 2, &ms); !ok || ub != 5 {
				t.Fatalf("store/probe round trip failed (%d,%v)", ub, ok)
			}
		})
	}
}

func TestSpillFormatErrors(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, corrupt func(b []byte)) string {
		path := filepath.Join(dir, name)
		m, _, err := OpenSpillMemo(path, MinMemoBytes, "tag-a")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if corrupt != nil {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			corrupt(b)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	// version1 rewrites the version field and re-seals the checksum: a
	// well-formed header of the old two-tier format, whose buckets
	// are indexed differently.
	version1 := func(b []byte) {
		binary.LittleEndian.PutUint32(b[8:12], 1)
		binary.LittleEndian.PutUint64(b[56:64], spillChecksum(b[0:56]))
	}

	cases := []struct {
		name    string
		path    string
		tag     string
		size    int64 // truncate the file to this size; -1 keeps it
		wantErr bool
	}{
		{"clean reopen", mk("ok.bin", nil), "tag-a", -1, false},
		{"bad magic", mk("magic.bin", func(b []byte) { b[0] ^= 0xff }), "tag-a", -1, true},
		{"bad checksum", mk("sum.bin", func(b []byte) { b[57] ^= 0xff }), "tag-a", -1, true},
		{"flipped geometry", mk("geom.bin", func(b []byte) { b[16] ^= 0x01 }), "tag-a", -1, true},
		{"version 1", mk("v1.bin", version1), "tag-a", -1, true},
		{"wrong tag", mk("tag.bin", nil), "tag-b", -1, true},
		{"truncated", mk("trunc.bin", nil), "tag-a", spillHdrSize + 24, true},
		{"empty", mk("empty.bin", nil), "tag-a", 0, true},
	}
	for _, tc := range cases {
		if tc.size >= 0 {
			if err := os.Truncate(tc.path, tc.size); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, warm, err := OpenSpillMemo(tc.path, MinMemoBytes, tc.tag)
			if tc.wantErr {
				var fe *SpillFormatError
				if !errors.As(err, &fe) {
					t.Fatalf("err = %v, want *SpillFormatError", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if !warm {
				t.Fatal("valid existing file did not report warm")
			}
		})
	}
}

// TestSpillTornBucketIsMiss pins the torn-write defense: a slot whose
// key and meta words did not come from the same store — the signature
// of a SIGKILL mid page flush — must verify as a miss, never return a
// bound, both in the live table and after the file is reopened.
func TestSpillTornBucketIsMiss(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.bin")
	m, _, err := OpenSpillMemo(path, MinMemoBytes, "test")
	if err != nil {
		t.Fatal(err)
	}

	const h1, h2, step, ub = 0x0123456789abcdef, 0xdeadbeefcafef00d, 5, 7
	var st memoStats
	m.store(h1, h2, step, ub, &st)
	if got, ok := m.probe(h1, h2, step, &st); !ok || got != ub {
		t.Fatalf("clean entry: probe = (%d, %v), want (%d, true)", got, ok, ub)
	}

	// Tear the slot: meta now claims a different (tighter) bound than
	// the one the key was entangled with.
	s, i := m.slot(h1)
	b := &s.buckets[i]
	for k := 0; k < 2; k++ {
		if b.meta[k]&(1<<16) != 0 {
			b.meta[k] = b.meta[k]&^0xff | (ub - 3)
		}
	}
	if got, ok := m.probe(h1, h2, step, &st); ok {
		t.Fatalf("torn slot verified: probe = (%d, true), want miss", got)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m, warm, err := OpenSpillMemo(path, MinMemoBytes, "test")
	if err != nil || !warm {
		t.Fatalf("reopen: warm = %v, err = %v", warm, err)
	}
	defer m.Close()
	if got, ok := m.probe(h1, h2, step, &st); ok {
		t.Fatalf("torn slot verified after reopen: probe = (%d, true), want miss", got)
	}
}

// TestOptimalSpillDifferential is the spill analogue of the memo
// differential gate: the search with a file-backed table — squeezed to
// the floor so it evicts — and then again with the same file reopened
// warm must be byte-identical to the memo-less search, and the
// reopened table must serve the bounds the first run left. Runs a
// dense random circuit so the table is under real eviction pressure.
func TestOptimalSpillDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	circ := randnet.Levels(14, 8, rng)
	wantSize, wantP, wantSet, _ := OptimalNoncollidingOpt(context.Background(), circ, OptimalOptions{})

	path := filepath.Join(t.TempDir(), "spill.bin")
	var cold MemoStats
	for pass, label := range []string{"cold", "warm"} {
		m, warm, err := OpenSpillMemo(path, 1, "test") // clamps to MinMemoBytes
		if err != nil {
			t.Fatal(err)
		}
		if (pass == 1) != warm {
			t.Fatalf("%s pass: warm = %v", label, warm)
		}
		gotSize, gotP, gotSet, err := OptimalNoncollidingOpt(context.Background(), circ, OptimalOptions{Memo: m})
		if err != nil {
			t.Fatal(err)
		}
		if gotSize != wantSize || !gotP.Equal(wantP) || !slices.Equal(gotSet, wantSet) {
			t.Fatalf("%s spill pass diverged: got (%d, %v), want (%d, %v)", label, gotSize, gotP, wantSize, wantP)
		}
		st := m.Stats()
		if pass == 0 {
			if st.Evictions == 0 {
				t.Fatalf("cold pass: no evictions — the floor-sized table never filled (stats %+v)", st)
			}
			cold = st
		}
		if pass == 1 && (st.Hits == 0 || st.Misses >= cold.Misses) {
			t.Fatalf("warm pass served nothing from the reopened file: stats %+v, cold pass %+v", st, cold)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// storedEntries reads every occupied slot of m back into the state it
// stores, by the slot format: key = h2 ^ memoMix(meta).
func storedEntries(m *Memo) []memoEntry {
	var es []memoEntry
	for s := range m.shards {
		for j, b := range m.shards[s].buckets {
			for k := 0; k < 2; k++ {
				if meta := b.meta[k]; meta&(1<<16) != 0 {
					h1 := uint64(s)<<(64-memoShardBits) | uint64(j)
					es = append(es, memoEntry{h1, b.key[k] ^ memoMix(meta), int(meta >> 8 & 0xff), uint8(meta)})
				}
			}
		}
	}
	return es
}

// FuzzSpillReopen corrupts a populated floor-sized spill file the way
// a torn or failing write can — bit flips and a truncation — and
// requires OpenSpillMemo either to refuse it with a *SpillFormatError
// or to open a table that never lies: every state the intact file
// stored probes as a miss or as its stored bound, and the n = 10
// search still returns the memo-less result. flips is read three
// bytes at a time: a little-endian offset into the file (modulo its
// size) and a bit index. The verifier is a hash, not a MAC, so only
// accidental corruption is in scope, not forged slots.
func FuzzSpillReopen(f *testing.F) {
	ctx := context.Background()
	circ := randnet.Levels(10, 6, rand.New(rand.NewSource(3)))
	want, err := OptimalNoncollidingPacked(ctx, circ, OptimalOptions{Workers: 1, NoMemo: true})
	if err != nil {
		f.Fatal(err)
	}
	seed := filepath.Join(f.TempDir(), "seed.spill")
	m, _, err := OpenSpillMemo(seed, MinMemoBytes, "fuzz")
	if err != nil {
		f.Fatal(err)
	}
	if got, err := OptimalNoncollidingPacked(ctx, circ, OptimalOptions{Workers: 1, Memo: m}); err != nil || got != want {
		f.Fatalf("populating search: %#x, %v; want %#x", got, err, want)
	}
	stored := storedEntries(m)
	if len(stored) == 0 {
		f.Fatal("the populating search stored nothing")
	}
	var st memoStats
	for _, e := range stored {
		if ub, ok := m.probe(e.h1, e.h2, e.step, &st); !ok || ub != e.ub {
			f.Fatalf("slot (h1=%#x, h2=%#x) read back (%d,%v), want (%d,true): the slot format drifted", e.h1, e.h2, ub, ok, e.ub)
		}
	}
	if err := m.Close(); err != nil {
		f.Fatal(err)
	}
	populated, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	full := uint32(len(populated))

	f.Add([]byte{}, full)                              // clean reopen
	f.Add([]byte{16, 0, 0}, full)                      // geometry bit
	f.Add([]byte{64, 0, 3, 80, 0, 0, 200, 1, 5}, full) // bucket words
	f.Add([]byte{}, full-24)                           // one bucket short
	f.Add([]byte{}, uint32(spillHdrSize-1))            // inside the header
	f.Fuzz(func(t *testing.T, flips []byte, size uint32) {
		b := slices.Clone(populated)
		for i := 0; i+3 <= len(flips); i += 3 {
			off := int(binary.LittleEndian.Uint16(flips[i:])) % len(b)
			b[off] ^= 1 << (flips[i+2] & 7)
		}
		if size < full {
			b = b[:size]
		}
		path := filepath.Join(t.TempDir(), "f.spill")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		m, _, err := OpenSpillMemo(path, MinMemoBytes, "fuzz")
		if err != nil {
			var fe *SpillFormatError
			if !errors.As(err, &fe) {
				t.Fatalf("err = %v, want *SpillFormatError or a table", err)
			}
			return
		}
		defer m.Close()
		var st memoStats
		for _, e := range stored {
			if ub, ok := m.probe(e.h1, e.h2, e.step, &st); ok && ub != e.ub {
				t.Fatalf("state (h1=%#x, h2=%#x, step %d) reads bound %d, the intact file stored %d", e.h1, e.h2, e.step, ub, e.ub)
			}
		}
		got, err := OptimalNoncollidingPacked(ctx, circ, OptimalOptions{Workers: 1, Memo: m})
		if err != nil || got != want {
			t.Fatalf("search on the reopened table: %#x, %v; want %#x", got, err, want)
		}
	})
}
