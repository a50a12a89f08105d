package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

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
// The table is sized in bytes at construction and never grows. All
// shards are cut from one bucket array, which comes from one of three
// backings: the Go heap, an anonymous mapping for a table of at least
// memoMapMin bytes (see newMemoBuckets), or a spill file's mapping
// (OpenSpillMemo). Probe and store do not know which. Each bucket
// holds two slots; on a full bucket the slot whose residual subtree is
// shallower (the larger step index, i.e. the cheaper recomputation) is
// sacrificed for the incoming entry. A stored key is the 64-bit
// verifier hash plus the step, on top of the shard and bucket index
// drawn from the first hash: ~91 bits of discrimination, so a wrong
// bound requires a full hash collision.
//
// A Memo may be shared between concurrent searches, including searches
// on different networks (keys are salted per network): the A-series
// experiment cells run that way.
type Memo struct {
	shards []memoShard
	mask   uint64 // buckets per shard - 1
	bytes  int64
	spill  *mmapio.File // backs the buckets of a spill table; nil otherwise

	hits, misses, stores, evicts atomic.Int64
}

type memoShard struct {
	mu      sync.Mutex
	buckets []memoBucket
	arena   *memoArena // owns buckets when they are mapped; nil on the heap
	_       [32]byte   // keep shards off each other's cache lines
}

// memoArena owns a table's mapped bucket array. Every shard points to
// it, so the mapping stays alive while any shard is reachable — a
// probe holds its shard, and with it the arena, until it unlocks —
// and a finalizer unmaps it once none is.
type memoArena struct {
	mem []byte
}

// release unmaps the array. Should munmap fail, the memory stays
// mapped and counted.
func (a *memoArena) release() {
	if err := mmapio.FreeAnon(a.mem); err == nil {
		metMemoMapped.Add(-int64(len(a.mem)))
	}
}

// memoBucket packs two entries: meta[i] is occupied<<16 | step<<8 |
// ub, and key[i] is the verifier hash entangled with it,
// h2 ^ memoMix(meta[i]). A key and a meta word that did not come from
// the same store fail verification and read as a miss, so a torn
// write — a spill file's pages flushed mid-store by a SIGKILL — loses
// the entry but never lends it another entry's bound.
type memoBucket struct {
	key  [2]uint64
	meta [2]uint32
}

// memoMix is the meta word's contribution to a slot's stored key.
func memoMix(meta uint32) uint64 {
	h := (uint64(meta) + 0x9e3779b97f4a7c15) * 0xc6a4a7935bd1e995
	return h ^ h>>29
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

	// memoMapMin is the smallest bucket array NewMemo maps instead of
	// allocating on the Go heap. A heap slice is zeroed whole up
	// front; a mapping costs one syscall and its pages are zeroed by
	// the kernel when first written, so the daemon's 48 MiB table
	// mounts in microseconds and stays resident only where searches
	// wrote. Below it — the search workload's 48 KiB per-circuit
	// tables, and the check-memo tables the race detector must see,
	// which it does not instrument in mapped memory — the heap wins.
	memoMapMin = 1 << 20
)

var (
	metMemoHits    = obs.C("core.optimal.memo.hits")
	metMemoMisses  = obs.C("core.optimal.memo.misses")
	metMemoStores  = obs.C("core.optimal.memo.stores")
	metMemoEvicts  = obs.C("core.optimal.memo.evictions")
	metMemoEntries = obs.G("core.optimal.memo.entries")
	metMemoLoad    = obs.FG("core.optimal.memo.load")
	// Bytes of bucket arrays currently mapped outside the Go heap,
	// over every live table. Go's memstats cannot see this memory,
	// nor can GOMEMLIMIT.
	metMemoMapped = obs.G("core.optimal.memo.mapped_bytes")
)

// NewMemo allocates a table of at most the given byte budget (rounded
// down to a power-of-two bucket count per shard). Budgets below
// MinMemoBytes — including zero and negative values — are clamped up
// to it, so a degenerate server flag or env value yields a small
// working table instead of a degenerate one.
func NewMemo(bytes int64) *Memo {
	per := memoBucketsPerShard(bytes)
	buckets, arena := newMemoBuckets(per * memoShardN)
	return newMemo(buckets, per, arena)
}

// memoBucketsPerShard is the one table geometry: the budget clamped up
// to MinMemoBytes, then rounded down to a power-of-two bucket count
// per shard.
func memoBucketsPerShard(bytes int64) int {
	if bytes < MinMemoBytes {
		bytes = MinMemoBytes
	}
	per := bytes / (2 * memoEntryCost) / memoShardN
	pow := 1
	for int64(pow)*2 <= per {
		pow *= 2
	}
	return pow
}

// newMemo cuts memoShardN shards of per buckets each from buckets.
func newMemo(buckets []memoBucket, per int, arena *memoArena) *Memo {
	m := &Memo{
		shards: make([]memoShard, memoShardN),
		mask:   uint64(per - 1),
		bytes:  int64(per) * memoShardN * 2 * memoEntryCost,
	}
	for i := range m.shards {
		m.shards[i].buckets = buckets[i*per : (i+1)*per : (i+1)*per]
		m.shards[i].arena = arena
	}
	return m
}

// newMemoBuckets returns n zeroed buckets. An array of at least
// memoMapMin bytes comes from an anonymous mapping, with the arena
// that unmaps it; a smaller one, or any one where the platform cannot
// map, comes from the heap with a nil arena.
func newMemoBuckets(n int) ([]memoBucket, *memoArena) {
	size := n * int(unsafe.Sizeof(memoBucket{}))
	if size >= memoMapMin {
		if mem, err := mmapio.Anon(size); err == nil {
			a := &memoArena{mem: mem}
			metMemoMapped.Add(int64(size))
			runtime.SetFinalizer(a, (*memoArena).release)
			return unsafe.Slice((*memoBucket)(unsafe.Pointer(&mem[0])), n), a
		}
	}
	return make([]memoBucket, n), nil
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
}

func (m *Memo) flush(st *memoStats) {
	if m == nil || st == nil {
		return
	}
	m.hits.Add(st.hits)
	m.misses.Add(st.misses)
	m.stores.Add(st.stores)
	m.evicts.Add(st.evicts)
	metMemoHits.Add(st.hits)
	metMemoMisses.Add(st.misses)
	metMemoStores.Add(st.stores)
	metMemoEvicts.Add(st.evicts)
	// Occupancy gauges: entries = stores − evictions since the table
	// was opened (a store either fills a free slot or replaces an
	// occupied one; see MemoStats.Entries for a warm spill table).
	// When several tables share the registry the gauges track the
	// most recently flushed table — the one actively searching.
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
		if meta := b.meta[k]; meta&^0xff == want && b.key[k] == h2^memoMix(meta) {
			s.mu.Unlock()
			st.hits++
			return uint8(meta), true
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
	meta := want | uint32(ub)
	key := h2 ^ memoMix(meta)
	s.mu.Lock()
	b := &s.buckets[i]
	victim, victimStep := -1, -1
	for k := 0; k < 2; k++ {
		km := b.meta[k]
		if km&^0xff == want && b.key[k] == h2^memoMix(km) {
			if uint8(km) > ub {
				b.key[k], b.meta[k] = key, meta
			}
			s.mu.Unlock()
			return
		}
		if km&(1<<16) == 0 {
			victim, victimStep = k, 1<<30
		} else if step := int(km >> 8 & 0xff); step > victimStep {
			victim, victimStep = k, step
		}
	}
	evict := b.meta[victim]&(1<<16) != 0
	b.key[victim], b.meta[victim] = key, meta
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
	// Entries is stores − evictions, Capacity the total slot count,
	// and LoadFactor their ratio — how full the bounded table is, i.e.
	// how close the search is to eviction churn. Like every counter
	// here, Entries counts from the moment this Memo was opened: a
	// spill table reopened warm reports 0 entries for the bounds it
	// inherited from earlier runs (counting them would read the whole
	// file at open), so on such a table Entries and LoadFactor are
	// this run's net fill, not the file's occupancy. The
	// core.optimal.memo.entries and .load gauges mean the same.
	Entries    int64   `json:"entries"`
	Capacity   int64   `json:"capacity"`
	LoadFactor float64 `json:"load_factor"`
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
	}
	s.Entries = s.Stores - s.Evictions
	if s.Capacity > 0 {
		s.LoadFactor = float64(s.Entries) / float64(s.Capacity)
	}
	return s
}
