package core

import (
	"sync"
	"sync/atomic"

	"shufflenet/internal/mmapio"
	"shufflenet/internal/obs"
)

// Memo is the transposition table for the optimum search: a bounded,
// sharded, lock-striped map from canonical residual states (see
// canonizer.key) to an upper bound on the number of M's any completion
// of that state can still add. Entries are true bounds, never exact
// values conditioned on the path that stored them, which is what makes
// probing sound under branch-and-bound cuts and under sharing between
// workers — see DESIGN.md §4, decision 10.
//
// The table is sized in bytes at construction and never grows. Each
// bucket holds two slots; on a full bucket the slot whose residual
// subtree is shallower (the larger step index, i.e. the cheaper
// recomputation) is sacrificed for the incoming entry. A stored key is
// the 64-bit verifier hash plus the step, on top of the shard and
// bucket index drawn from the first hash: ~91 bits of discrimination,
// so a wrong bound requires a full hash collision.
//
// A Memo may be shared between concurrent searches, including searches
// on different networks (keys are salted per network): the A-series
// experiment cells run that way.
type Memo struct {
	shards []memoShard
	mask   uint64 // buckets per shard - 1
	bytes  int64

	// Disk tier (nil without a spill file): per-shard bucket arrays
	// viewed directly over the mmap'd spill file, guarded by the same
	// shard mutexes as the RAM tier. RAM evictions demote the victim
	// here instead of dropping it, and a RAM miss probes here before
	// reporting a miss — see memospill.go.
	disk      [][]memoBucket
	diskMask  uint64 // disk buckets per shard - 1
	diskBytes int64
	spill     *mmapio.File

	hits, misses, stores, evicts atomic.Int64
	diskHits, demotions          atomic.Int64
}

type memoShard struct {
	mu      sync.Mutex
	buckets []memoBucket
	_       [40]byte // keep shards off each other's cache lines
}

// memoBucket packs two entries: key[i] is the verifier hash, meta[i]
// is occupied<<16 | step<<8 | ub.
type memoBucket struct {
	key  [2]uint64
	meta [2]uint32
}

const (
	memoShardBits = 7
	memoShardN    = 1 << memoShardBits
	memoEntryCost = 24 / 2 // bucket bytes per entry

	// DefaultMemoBytes is the table budget the optimum search uses
	// when the caller does not supply a Memo; memoAutoBytes shrinks it
	// for small n, where the whole state space is far smaller.
	DefaultMemoBytes = 256 << 20

	// MinMemoBytes is the smallest budget NewMemo will honor: requests
	// below it (including zero and negative values, which reach us
	// unvalidated from server flags and environment variables) are
	// clamped up to it. The floor guarantees every shard gets at least
	// a handful of buckets — a zero- or negative-budget request must
	// degrade to a small-but-working table, never to a zero-slot one.
	// (Before the clamp, a negative budget sign-flipped through the
	// uint64 conversion in the bucket-count sizing loop and NewMemo
	// spun forever.)
	MinMemoBytes = 1 << 14
)

var (
	metMemoHits     = obs.C("core.optimal.memo.hits")
	metMemoMisses   = obs.C("core.optimal.memo.misses")
	metMemoStores   = obs.C("core.optimal.memo.stores")
	metMemoEvicts   = obs.C("core.optimal.memo.evictions")
	metMemoEntries  = obs.G("core.optimal.memo.entries")
	metMemoLoad     = obs.FG("core.optimal.memo.load")
	metMemoDiskHits = obs.C("core.optimal.memo.disk.hits")
	metMemoDemotes  = obs.C("core.optimal.memo.disk.demotions")
)

// NewMemo allocates a table of at most the given byte budget (rounded
// down to a power-of-two bucket count per shard). Budgets below
// MinMemoBytes — including zero and negative values — are clamped up
// to it, so a degenerate server flag or env value yields a small
// working table instead of a degenerate one.
func NewMemo(bytes int64) *Memo {
	if bytes < MinMemoBytes {
		bytes = MinMemoBytes
	}
	perShard := bytes / (2 * memoEntryCost) / memoShardN
	pow := uint64(1)
	for pow*2 <= uint64(perShard) {
		pow *= 2
	}
	m := &Memo{
		shards: make([]memoShard, memoShardN),
		mask:   pow - 1,
		bytes:  int64(pow) * memoShardN * 2 * memoEntryCost,
	}
	for i := range m.shards {
		m.shards[i].buckets = make([]memoBucket, pow)
	}
	return m
}

// memoAutoBytes sizes the default table for an n-wire search: the
// state space is far below 3^n (live rails only, quotiented by
// symmetry), so small n get small tables; the cap is DefaultMemoBytes.
func memoAutoBytes(n int) int64 {
	b := int64(2 * memoEntryCost)
	for i := 0; i < n-4; i++ {
		b *= 3
		if b >= DefaultMemoBytes {
			return DefaultMemoBytes
		}
	}
	if b < MinMemoBytes {
		b = MinMemoBytes
	}
	return b
}

// AutoMemoBytes is the table budget the optimum search picks for an
// n-wire search when the caller passes neither a Memo nor NoMemo.
// Exported so CLIs can build the same table explicitly and report its
// Stats in run journals.
func AutoMemoBytes(n int) int64 {
	return memoAutoBytes(n)
}

// memoStats accumulates one worker's counters locally so the hot probe
// path never touches shared atomics; flush folds them into the table
// totals and the obs registry once per search.
type memoStats struct {
	hits, misses, stores, evicts int64
	dhits, demotes               int64
}

func (m *Memo) flush(st *memoStats) {
	if m == nil || st == nil {
		return
	}
	m.hits.Add(st.hits)
	m.misses.Add(st.misses)
	m.stores.Add(st.stores)
	m.evicts.Add(st.evicts)
	m.diskHits.Add(st.dhits)
	m.demotions.Add(st.demotes)
	metMemoHits.Add(st.hits)
	metMemoMisses.Add(st.misses)
	metMemoStores.Add(st.stores)
	metMemoEvicts.Add(st.evicts)
	metMemoDiskHits.Add(st.dhits)
	metMemoDemotes.Add(st.demotes)
	// Occupancy gauges: entries = stores − evictions (a store either
	// fills a free slot or replaces an occupied one). When several
	// tables share the registry the gauges track the most recently
	// flushed table — the one actively searching.
	entries := m.stores.Load() - m.evicts.Load()
	metMemoEntries.Set(entries)
	if slots := m.bytes / memoEntryCost; slots > 0 {
		metMemoLoad.Set(float64(entries) / float64(slots))
	}
	*st = memoStats{}
}

func (m *Memo) slot(h1 uint64) (*memoShard, uint64) {
	s := &m.shards[h1>>(64-memoShardBits)]
	return s, h1 & m.mask
}

// probe looks up the canonical state (h1, h2) at boundary step t and
// returns the stored bound on additional M's, if present.
func (m *Memo) probe(h1, h2 uint64, t int, st *memoStats) (uint8, bool) {
	s, i := m.slot(h1)
	want := uint32(1)<<16 | uint32(t)<<8
	s.mu.Lock()
	b := &s.buckets[i]
	for k := 0; k < 2; k++ {
		if b.key[k] == h2 && b.meta[k]&^0xff == want {
			ub := uint8(b.meta[k])
			s.mu.Unlock()
			st.hits++
			return ub, true
		}
	}
	if m.disk != nil {
		si := int(h1 >> (64 - memoShardBits))
		if ub, ok := m.diskProbe(si, h2, want); ok {
			s.mu.Unlock()
			st.dhits++
			return ub, true
		}
	}
	s.mu.Unlock()
	st.misses++
	return 0, false
}

// store records ub as a true upper bound for the canonical state
// (h1, h2) at boundary step t. A matching entry keeps the tighter
// bound; a full bucket evicts the deeper (shallower-subtree) slot.
func (m *Memo) store(h1, h2 uint64, t int, ub uint8, st *memoStats) {
	s, i := m.slot(h1)
	want := uint32(1)<<16 | uint32(t)<<8
	s.mu.Lock()
	b := &s.buckets[i]
	victim, victimStep := -1, -1
	for k := 0; k < 2; k++ {
		if b.key[k] == h2 && b.meta[k]&^0xff == want {
			if uint8(b.meta[k]) > ub {
				b.meta[k] = want | uint32(ub)
			}
			s.mu.Unlock()
			return
		}
		if b.meta[k]&(1<<16) == 0 {
			victim, victimStep = k, 1<<30
		} else if step := int(b.meta[k] >> 8 & 0xff); step > victimStep {
			victim, victimStep = k, step
		}
	}
	evict := b.meta[victim]&(1<<16) != 0
	if evict && m.disk != nil {
		// Spill path: the sacrificed entry demotes to the disk tier
		// (still under the shard lock — both tiers share it) instead of
		// being forgotten; a warm reopen serves it back.
		si := int(h1 >> (64 - memoShardBits))
		m.diskStore(si, b.key[victim], b.meta[victim])
		st.demotes++
	}
	b.key[victim] = h2
	b.meta[victim] = want | uint32(ub)
	s.mu.Unlock()
	st.stores++
	if evict {
		st.evicts++
	}
}

// MemoStats is a point-in-time snapshot of table activity, suitable
// for run journals.
type MemoStats struct {
	Bytes     int64 `json:"bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Stores    int64 `json:"stores"`
	Evictions int64 `json:"evictions"`
	// Entries is the number of occupied slots (stores − evictions),
	// Capacity the total slot count, and LoadFactor their ratio — how
	// full the bounded table is, i.e. how close the search is to
	// eviction churn.
	Entries    int64   `json:"entries"`
	Capacity   int64   `json:"capacity"`
	LoadFactor float64 `json:"load_factor"`
	// Spill-tier activity (zero without a spill file): the disk tier's
	// byte size, probe hits served from it, and RAM evictions demoted
	// into it instead of dropped.
	DiskBytes int64 `json:"disk_bytes,omitempty"`
	DiskHits  int64 `json:"disk_hits,omitempty"`
	Demotions int64 `json:"demotions,omitempty"`
}

// Stats reports the table size and cumulative counters. Counters are
// flushed at the end of each search — and, when a Progress engine is
// attached to the search, at the cancellation-probe cadence — so
// mid-search reads lag by at most one flush stride.
func (m *Memo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	s := MemoStats{
		Bytes:     m.bytes,
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Stores:    m.stores.Load(),
		Evictions: m.evicts.Load(),
		Capacity:  m.bytes / memoEntryCost,
		DiskBytes: m.diskBytes,
		DiskHits:  m.diskHits.Load(),
		Demotions: m.demotions.Load(),
	}
	s.Entries = s.Stores - s.Evictions
	if s.Capacity > 0 {
		s.LoadFactor = float64(s.Entries) / float64(s.Capacity)
	}
	return s
}
