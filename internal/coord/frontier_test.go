package coord

import (
	"bytes"
	"context"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shufflenet/internal/core"
	"shufflenet/internal/obs"
)

// TestParseResumeJournalOldFormat reads a journal written before the
// records shared one header — untyped run entries, frontier records
// with no cmd, request lines with no run — and recovers the frontier
// the killed run and its resume checkpointed between them.
func TestParseResumeJournalOldFormat(t *testing.T) {
	fr, err := readFrontier("../obs/testdata/old_journal.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	want := Frontier{Net: "42caffa980822ddd0a9d3a155d9f96ce", N: 16, Prefixes: 81,
		Done: map[int]bool{0: true, 1: true, 2: true, 3: true}, Seed: 25762911829, LastSeq: 4}
	if !frontierEqual(fr, &want) || fr.LastSeq != want.LastSeq {
		t.Fatalf("frontier = %+v, want %+v", fr, want)
	}
}

func frontierEqual(a, b *Frontier) bool {
	return a.Net == b.Net && a.N == b.N && a.Prefixes == b.Prefixes && a.Seed == b.Seed && maps.Equal(a.Done, b.Done)
}

// TestOpenFrontier: a fresh frontier journals frontier_init and skips
// nothing; a resume reads the journal back, journals frontier_init
// with the seed plus resumed, and refuses a journal for another
// network, another frontier geometry, or a seed that is no witness.
func TestOpenFrontier(t *testing.T) {
	circ := testCircuit(t, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	j, err := obs.OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	w, fr, err := OpenFrontier(j, circ, "")
	if err != nil {
		t.Fatal(err)
	}
	if fr.Net != core.NetworkFingerprint(circ) || fr.Prefixes != core.OptimalPrefixes(circ.Wires()) || len(fr.Done) != 0 || fr.Seed != 0 {
		t.Fatalf("fresh frontier = %+v", fr)
	}
	want, err := core.OptimalNoncollidingPacked(context.Background(), circ, core.OptimalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PrefixDone(5, want); err != nil {
		t.Fatal(err)
	}
	j.Close()

	resumed := filepath.Join(dir, "resumed.jsonl")
	j2, err := obs.OpenJournal(resumed)
	if err != nil {
		t.Fatal(err)
	}
	_, fr, err = OpenFrontier(j2, circ, path)
	j2.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Skip(5) || len(fr.Done) != 1 || fr.Seed != want {
		t.Fatalf("resumed frontier = %+v, want prefix 5 done and seed %#x", fr, want)
	}
	var types []string
	f, err := os.Open(resumed)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := obs.ReadJournal(f, func(h obs.Header, _ []byte) error {
		types = append(types, h.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(types, ","); got != RecFrontierInit+","+RecResumed {
		t.Fatalf("resumed journal records = %s", got)
	}

	refuse := func(name, journal, msg string) {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(journal), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenFrontier(nil, circ, p); err == nil || !strings.Contains(err.Error(), msg) {
			t.Fatalf("%s: err %v, want %q", name, err, msg)
		}
	}
	fp := core.NetworkFingerprint(circ)
	refuse("other.jsonl", `{"type":"frontier_init","net":"0123","n":12,"prefixes":81,"seq":1}`, "different circuit")
	refuse("width.jsonl", `{"type":"frontier_init","net":"`+fp+`","n":12,"prefixes":80,"seq":1}`, "12 wires/80 prefixes")
	refuse("forged.jsonl", `{"type":"frontier_init","net":"`+fp+`","n":12,"prefixes":81,"seq":1}
{"type":"prefix_done","prefix":0,"incumbent":18446744073709551615,"seq":2}`, "not a witness")
}

// FuzzParseResumeJournal: a journal is bytes the resuming process did
// not write. Whatever ParseResumeJournal accepts is a well-formed
// frontier — a network, done prefixes inside the frontier — and
// journaling it again through a FrontierWriter reads back the same
// frontier.
func FuzzParseResumeJournal(f *testing.F) {
	f.Add([]byte(`{"type":"frontier_init","net":"abc","n":12,"prefixes":81,"seq":1}
{"type":"heartbeat","seq":9}
{"type":"prefix_done","prefix":4,"incumbent":100,"seq":2}
{"type":"prefix_done","prefix":7,"incumbent":260,"seq":3}
{"type":"frontier_init","net":"abc","n":12,"prefixes":81,"seed":50,"seq":1}
{"type":"prefix_done","prefix":4,"incumbent":90,"seq":2}
{"type":"prefix_done","pre`))
	f.Add([]byte(`{"type":"frontier_init","net":"abc","n":12,"prefixes":81,"seq":1}` + "\n" + `{"type":"prefix`))
	f.Add([]byte(`{"cmd":"adversary","run":"r"}` + "\n" + `{"type":"request","endpoint":"check","status":200}`))
	if data, err := os.ReadFile("../obs/testdata/old_journal.jsonl"); err == nil {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ParseResumeJournal(bytes.NewReader(data))
		if err != nil {
			return
		}
		if fr.Net == "" {
			t.Fatal("accepted a frontier with no network")
		}
		for p := range fr.Done {
			if p < 0 || p >= fr.Prefixes {
				t.Fatalf("done prefix %d outside the %d-wide frontier", p, fr.Prefixes)
			}
		}

		path := filepath.Join(t.TempDir(), "j.jsonl")
		j, err := obs.OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		w := NewFrontierWriter(j)
		err = w.Init(fr.Net, fr.N, fr.Prefixes, fr.Seed)
		for p := range fr.Done {
			if err == nil {
				err = w.PrefixDone(p, fr.Seed)
			}
		}
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		again, err := readFrontier(path)
		if err != nil {
			t.Fatalf("re-journaled frontier does not parse: %v", err)
		}
		if !frontierEqual(again, fr) {
			t.Fatalf("re-journaled frontier = %+v, want %+v", again, fr)
		}
	})
}
