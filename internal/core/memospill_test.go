package core

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"shufflenet/internal/randnet"
)

// TestSpillBudgetDegenerate is the table-driven degenerate-budget gate
// for the spill path: budgets below the floor — including zero and
// negative values, which reach OpenSpillMemo unvalidated from CLI
// flags — must fail with a typed *SpillBudgetError before any file is
// created, and in-range budgets must produce a file whose size matches
// its own header geometry (rounded down to a power of two per shard,
// never up past the budget).
func TestSpillBudgetDegenerate(t *testing.T) {
	cases := []struct {
		name   string
		budget int64
		wantOK bool
	}{
		{"negative", -1, false},
		{"very negative", -1 << 40, false},
		{"zero", 0, false},
		{"one byte", 1, false},
		{"header only", spillHdrSize, false},
		{"one under floor", MinSpillMemoBytes - 1, false},
		{"floor", MinSpillMemoBytes, true},
		{"odd budget", MinSpillMemoBytes + 12345, true},
		{"1 MiB", 1 << 20, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "spill.bin")
			m, warm, err := OpenSpillMemo(path, MinMemoBytes, tc.budget, "test")
			if !tc.wantOK {
				var be *SpillBudgetError
				if !errors.As(err, &be) {
					t.Fatalf("budget %d: err = %v, want *SpillBudgetError", tc.budget, err)
				}
				if be.Requested != tc.budget || be.Min != MinSpillMemoBytes {
					t.Fatalf("error fields = %+v", be)
				}
				if _, statErr := os.Stat(path); statErr == nil {
					t.Fatal("rejected budget still created the spill file")
				}
				return
			}
			if err != nil {
				t.Fatalf("budget %d: %v", tc.budget, err)
			}
			defer m.Close()
			if warm {
				t.Fatal("fresh file reported warm")
			}
			if !m.Spilling() {
				t.Fatal("no disk tier attached")
			}
			per := int64(m.diskMask + 1)
			if per&(per-1) != 0 {
				t.Fatalf("buckets per shard %d not a power of two", per)
			}
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != spillFileSize(per) {
				t.Fatalf("file size %d, geometry needs %d", st.Size(), spillFileSize(per))
			}
			if st.Size() > tc.budget {
				t.Fatalf("file size %d exceeds the %d budget", st.Size(), tc.budget)
			}
		})
	}
}

func TestSpillFormatErrors(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, corrupt func(b []byte)) string {
		path := filepath.Join(dir, name)
		m, _, err := OpenSpillMemo(path, MinMemoBytes, MinSpillMemoBytes, "tag-a")
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

	cases := []struct {
		name    string
		path    string
		tag     string
		wantErr bool
	}{
		{"clean reopen", mk("ok.bin", nil), "tag-a", false},
		{"bad magic", mk("magic.bin", func(b []byte) { b[0] ^= 0xff }), "tag-a", true},
		{"bad checksum", mk("sum.bin", func(b []byte) { b[57] ^= 0xff }), "tag-a", true},
		{"flipped geometry", mk("geom.bin", func(b []byte) { b[16] ^= 0x01 }), "tag-a", true},
		{"wrong tag", mk("tag.bin", nil), "tag-b", true},
		{"truncated", mk("trunc.bin", nil), "tag-a", true},
	}
	// Truncate the last case's file body so size disagrees with header.
	if err := os.Truncate(cases[len(cases)-1].path, spillHdrSize+24); err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, warm, err := OpenSpillMemo(tc.path, MinMemoBytes, MinSpillMemoBytes, tc.tag)
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

// TestSpillTornBucketIsMiss pins the torn-write defense: a disk bucket
// whose key and meta words did not come from the same store — the
// signature of a SIGKILL mid page flush — must verify as a miss, never
// return a bound.
func TestSpillTornBucketIsMiss(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.bin")
	m, _, err := OpenSpillMemo(path, MinMemoBytes, MinSpillMemoBytes, "test")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const h2, step, ub = 0xdeadbeefcafef00d, 5, 7
	want := uint32(1)<<16 | uint32(step)<<8
	m.diskStore(3, h2, want|ub)
	if got, ok := m.diskProbe(3, h2, want); !ok || got != ub {
		t.Fatalf("clean entry: probe = (%d, %v), want (%d, true)", got, ok, ub)
	}

	// Tear the bucket: meta now claims a different (tighter) bound than
	// the one the key was entangled with.
	b := &m.disk[3][h2&m.diskMask]
	for k := 0; k < 2; k++ {
		if b.meta[k]&(1<<16) != 0 {
			b.meta[k] = want | (ub - 3)
		}
	}
	if got, ok := m.diskProbe(3, h2, want); ok {
		t.Fatalf("torn bucket verified: probe = (%d, true), want miss", got)
	}
}

// TestOptimalSpillDifferential is the spill analogue of the memo
// differential gate: the search with a spilling table — RAM tier
// squeezed to the floor so demotions actually happen — and then again
// with the same file reopened warm must be byte-identical to the
// memo-less search. Runs a dense random circuit so the table is under
// real eviction pressure.
func TestOptimalSpillDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	circ := randnet.Levels(14, 8, rng)
	wantSize, wantP, wantSet, _ := OptimalNoncollidingOpt(context.Background(), circ, OptimalOptions{})

	path := filepath.Join(t.TempDir(), "spill.bin")
	for pass, label := range []string{"cold", "warm"} {
		m, warm, err := OpenSpillMemo(path, 1, 1<<20, "test") // RAM tier clamps to MinMemoBytes
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
		if pass == 0 && st.Demotions == 0 {
			t.Fatalf("cold pass: no demotions — RAM tier never overflowed, the spill path was not exercised (stats %+v)", st)
		}
		if pass == 1 && st.DiskHits == 0 {
			t.Fatalf("warm pass: no disk hits — the reopened table served nothing (stats %+v)", st)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
