// Package coord makes the optimum search durable and distributable:
// typed frontier records checkpoint the 81-prefix frontier into the
// JSONL run journal (so a killed run resumes with -resume), and an
// HTTP coordinator leases prefix ranges to worker processes and merges
// their packed incumbents (so one search spans machines).
//
// Everything rests on one algebraic fact, proved as DESIGN.md §4
// decision 14: the packed incumbent is a pure max over the search's
// leaves, and when a frontier prefix completes, the global incumbent
// at that moment dominates everything the prefix's subtree could
// contribute. Hence (a) a resumed run that skips completed prefixes
// and seeds the recorded incumbent returns the byte-identical result,
// and (b) the max of per-shard results over any partition of the
// frontier equals the whole search's result. Checkpointing and
// sharding are the same mechanism at two granularities.
package coord

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"shufflenet/internal/core"
	"shufflenet/internal/network"
	"shufflenet/internal/obs"
)

// Record type tags of the frontier records. They share the run
// journal with run entries, heartbeats and request lines; the header's
// type routes them.
const (
	RecFrontierInit = "frontier_init"
	RecPrefixDone   = "prefix_done"
	RecResumed      = "resumed"
)

// FrontierInit opens a checkpointed search in the journal: which
// network (by fingerprint — see core.NetworkFingerprint), how wide its
// frontier is, and the incumbent the run was seeded with (non-zero on
// a resumed run, so chains of resumes stay sound).
type FrontierInit struct {
	obs.Header
	Net      string `json:"net"`
	N        int    `json:"n"`
	Prefixes int    `json:"prefixes"`
	Seed     uint64 `json:"seed,omitempty"`
	Seq      int    `json:"seq"`
}

// PrefixDone checkpoints one retired frontier prefix together with the
// global packed incumbent at the moment its subtree was exhausted —
// by the resume proof, a sound seed for any run that skips it.
type PrefixDone struct {
	obs.Header
	Prefix    int    `json:"prefix"`
	Incumbent uint64 `json:"incumbent"`
	Seq       int    `json:"seq"`
}

// Resumed is written by a resumed run after reading a prior journal:
// where it resumed from, how much of the frontier it inherited, and
// the seed it starts with. obsreport renders it as "resumed from seq
// N, M/P prefixes skipped".
type Resumed struct {
	obs.Header
	From     string `json:"from"`
	FromSeq  int    `json:"from_seq"`
	Skipped  int    `json:"skipped"`
	Prefixes int    `json:"prefixes"`
	Seed     uint64 `json:"seed"`
	Seq      int    `json:"seq"`
}

// FrontierWriter journals frontier records with monotonically
// increasing sequence numbers of their own. Safe for concurrent use
// (the search calls PrefixDone from worker goroutines). A writer over
// a nil journal is inert, mirroring obs.Journal's nil behavior.
type FrontierWriter struct {
	mu  sync.Mutex
	j   *obs.Journal
	seq int
}

// NewFrontierWriter wraps a journal (nil is allowed and yields an
// inert writer). The journal stamps each record with its run.
func NewFrontierWriter(j *obs.Journal) *FrontierWriter {
	return &FrontierWriter{j: j}
}

// write journals the record rec builds for the next sequence number.
func (w *FrontierWriter) write(rec func(seq int) obs.Record) error {
	if w == nil || w.j == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	return w.j.Write(rec(w.seq))
}

// Init journals the FrontierInit record.
func (w *FrontierWriter) Init(net string, n, prefixes int, seed uint64) error {
	return w.write(func(seq int) obs.Record {
		return &FrontierInit{Header: obs.Header{Type: RecFrontierInit},
			Net: net, N: n, Prefixes: prefixes, Seed: seed, Seq: seq}
	})
}

// PrefixDone journals one retired prefix. Errors are returned so the
// CLI can surface a failing disk, but the search result does not
// depend on them.
func (w *FrontierWriter) PrefixDone(prefix int, incumbent uint64) error {
	return w.write(func(seq int) obs.Record {
		return &PrefixDone{Header: obs.Header{Type: RecPrefixDone},
			Prefix: prefix, Incumbent: incumbent, Seq: seq}
	})
}

// Resumed journals the resume provenance record.
func (w *FrontierWriter) Resumed(from string, fromSeq, skipped, prefixes int, seed uint64) error {
	return w.write(func(seq int) obs.Record {
		return &Resumed{Header: obs.Header{Type: RecResumed},
			From: from, FromSeq: fromSeq, Skipped: skipped, Prefixes: prefixes, Seed: seed, Seq: seq}
	})
}

// Frontier is the resumable state reconstructed from a journal (or,
// from OpenFrontier without one, a fresh search's): which prefixes any
// prior run completed, the strongest incumbent recorded, and the
// identity the records were stamped with.
type Frontier struct {
	Net      string
	N        int
	Prefixes int
	Done     map[int]bool
	Seed     uint64
	// LastSeq is the highest frontier sequence number seen — the
	// "resumed from seq N" of the provenance record.
	LastSeq int
}

// Skip is a core.OptimalOptions.SkipPrefix for this frontier. Safe on
// a nil receiver (skips nothing).
func (f *Frontier) Skip(prefix int) bool {
	return f != nil && f.Done[prefix]
}

// ParseResumeJournal reads a JSONL run journal and reconstructs the
// checkpointed frontier. Non-frontier records (run entries,
// heartbeats, requests) are ignored. Line framing is obs.ReadJournal's:
// a torn final line, the expected signature of a killed run, is
// tolerated, and any other unparseable line is an error. Records from
// multiple runs (a chain of resumes appending to one file) accumulate:
// a prefix done in any run stays done, and the seed is the max
// incumbent recorded anywhere — both sound because every recorded
// incumbent is a real leaf of this network's search. Mixing networks
// in one journal is an error.
func ParseResumeJournal(r io.Reader) (*Frontier, error) {
	f := &Frontier{Done: map[int]bool{}}
	_, err := obs.ReadJournal(r, func(h obs.Header, line []byte) error {
		switch h.Type {
		case RecFrontierInit:
			var rec FrontierInit
			if err := json.Unmarshal(line, &rec); err != nil {
				return err
			}
			if f.Net != "" && rec.Net != f.Net {
				return fmt.Errorf("journal mixes networks (%s then %s)", f.Net, rec.Net)
			}
			if f.Net != "" && (rec.N != f.N || rec.Prefixes != f.Prefixes) {
				return fmt.Errorf("journal mixes frontier geometries (%d wires/%d prefixes then %d/%d)", f.N, f.Prefixes, rec.N, rec.Prefixes)
			}
			f.Net, f.N, f.Prefixes = rec.Net, rec.N, rec.Prefixes
			f.Seed = max(f.Seed, rec.Seed)
			f.LastSeq = max(f.LastSeq, rec.Seq)
		case RecPrefixDone:
			var rec PrefixDone
			if err := json.Unmarshal(line, &rec); err != nil {
				return err
			}
			if f.Net == "" {
				return fmt.Errorf("%s record before any %s", RecPrefixDone, RecFrontierInit)
			}
			if rec.Prefix < 0 || rec.Prefix >= f.Prefixes {
				return fmt.Errorf("prefix %d outside the %d-wide frontier", rec.Prefix, f.Prefixes)
			}
			f.Done[rec.Prefix] = true
			f.Seed = max(f.Seed, rec.Incumbent)
			f.LastSeq = max(f.LastSeq, rec.Seq)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if f.Net == "" {
		return nil, fmt.Errorf("no %s record: not a checkpointed optimum journal", RecFrontierInit)
	}
	return f, nil
}

// OpenFrontier starts the checkpoint trail of an optimum search over
// circ in journal j (nil journals nothing) and returns the writer for
// its prefix_done records plus the frontier the search starts from.
//
// With resume empty, the frontier is fresh: nothing done, no seed.
// Otherwise it is read from the journal at that path and checked
// against circ before anything is searched or journaled: the same
// network fingerprint, the same frontier geometry, and a seed
// incumbent that is a witness on circ (core.VerifyOptimalWitness) —
// the journal is bytes this process did not write, and the search
// returns a seed it cannot beat unchanged. The new trail then opens
// with frontier_init carrying the seed and, when resuming, a resumed
// record.
func OpenFrontier(j *obs.Journal, circ *network.Network, resume string) (*FrontierWriter, *Frontier, error) {
	n := circ.Wires()
	fr := &Frontier{Net: core.NetworkFingerprint(circ), N: n, Prefixes: core.OptimalPrefixes(n), Done: map[int]bool{}}
	if resume != "" {
		got, err := readFrontier(resume)
		if err != nil {
			return nil, nil, fmt.Errorf("resume from %s: %w", resume, err)
		}
		switch {
		case got.Net != fr.Net:
			return nil, nil, fmt.Errorf("resume from %s: journal checkpoints network %s, but the circuit is %s (different circuit)", resume, got.Net, fr.Net)
		case got.N != fr.N || got.Prefixes != fr.Prefixes:
			return nil, nil, fmt.Errorf("resume from %s: journal frontier is %d wires/%d prefixes, the circuit's is %d/%d", resume, got.N, got.Prefixes, fr.N, fr.Prefixes)
		}
		if got.Seed != 0 {
			if err := core.VerifyOptimalWitness(circ, got.Seed); err != nil {
				return nil, nil, fmt.Errorf("resume from %s: seed incumbent %d is not a witness on this circuit: %v", resume, got.Seed, err)
			}
		}
		fr = got
	}
	w := NewFrontierWriter(j)
	err := w.Init(fr.Net, fr.N, fr.Prefixes, fr.Seed)
	if err == nil && resume != "" {
		err = w.Resumed(resume, fr.LastSeq, len(fr.Done), fr.Prefixes, fr.Seed)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	return w, fr, nil
}

func readFrontier(path string) (*Frontier, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	return ParseResumeJournal(fd)
}
