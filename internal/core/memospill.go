package core

import (
	"encoding/binary"
	"fmt"
	"os"
	"unsafe"

	"shufflenet/internal/mmapio"
)

// Spill-backed transposition table: the Memo's one bucket array,
// mapped from a versioned file instead of taken from the heap or an
// anonymous mapping. Nothing else changes — the shards are cut from it
// exactly as NewMemo cuts them, and probe and store run the same code
// under the same shard mutexes. Because the mapping is MAP_SHARED,
// every store lands in the page cache as it is made, so a SIGKILLed
// run leaves every bound it stored for the next run to reopen.
//
// Soundness is inherited, not re-proven: every entry is a true upper
// bound keyed by the canonical, structure-salted residual state, so
// serving it from a *previous run's* file can only prune subtrees that
// provably cannot beat the final incumbent. The one genuinely new
// hazard is a torn slot: a SIGKILL or crash can flush the pages of a
// slot's key and meta words from different stores (a bucket may
// straddle a page boundary). Every table stores the key entangled with
// its meta word (memoBucket, memoMix), so such a pair fails
// verification and reads as a miss — corruption degrades the cache,
// never the bound.
//
// File layout (little endian):
//
//	[0,64)  header: magic, version, shard geometry, tag hash, checksum
//	[64,…)  the bucket array: memoShardN shards of bucketsPerShard
//	        24-byte buckets each, in shard order
//
// The header is checksummed (FNV-1a) and carries a caller tag (git
// describe / version string, hashed) so a file written by incompatible
// code or for a different deployment is rejected as *SpillFormatError
// rather than silently misread. Version 2 indexes buckets by the first
// hash, as every table does; a file of any other version is refused.

const (
	spillMagic   = "SNSPILL\x01"
	spillVersion = 2
	spillHdrSize = 64
)

// SpillFormatError reports a spill file that exists but cannot be
// reopened: wrong magic/version, checksum mismatch, a different tag,
// or a size that disagrees with its own header.
type SpillFormatError struct {
	Path   string
	Reason string
}

func (e *SpillFormatError) Error() string {
	return fmt.Sprintf("core: spill file %s: %s", e.Path, e.Reason)
}

func spillChecksum(b []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h
}

func spillTagHash(tag string) uint64 {
	return spillChecksum([]byte("tag:" + tag))
}

func spillFileSize(perShard int) int64 {
	return spillHdrSize + int64(perShard)*memoShardN*2*memoEntryCost
}

// OpenSpillMemo builds a Memo whose bucket array is the spill file at
// path. A new file is sized by bytes, as NewMemo sizes a table
// (clamped and rounded down to a power-of-two bucket count per shard).
// If the file already exists its header is validated against tag and
// the stored geometry wins (bytes is ignored); warm reports that case
// — the table starts with every bound the previous run stored. An
// existing file with a bad header fails with *SpillFormatError. The
// caller owns Close, which syncs the mapping.
func OpenSpillMemo(path string, bytes int64, tag string) (m *Memo, warm bool, err error) {
	var f *mmapio.File
	var per int
	if st, statErr := os.Stat(path); statErr == nil {
		if st.Size() < spillHdrSize {
			return nil, false, &SpillFormatError{Path: path, Reason: "shorter than the header"}
		}
		f, err = mmapio.Open(path)
		if err != nil {
			return nil, false, err
		}
		per, err = validateSpillHeader(path, f.Bytes(), tag)
		if err != nil {
			f.Close()
			return nil, false, err
		}
		warm = true
	} else {
		per = memoBucketsPerShard(bytes)
		f, err = mmapio.Create(path, spillFileSize(per))
		if err != nil {
			return nil, false, err
		}
		writeSpillHeader(f.Bytes(), per, tag)
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, false, err
		}
	}
	data := f.Bytes()[spillHdrSize:]
	m = newMemo(unsafe.Slice((*memoBucket)(unsafe.Pointer(&data[0])), per*memoShardN), per, nil)
	m.spill = f
	return m, warm, nil
}

func writeSpillHeader(b []byte, perShard int, tag string) {
	copy(b[0:8], spillMagic)
	binary.LittleEndian.PutUint32(b[8:12], spillVersion)
	binary.LittleEndian.PutUint32(b[12:16], memoShardBits)
	binary.LittleEndian.PutUint64(b[16:24], uint64(perShard))
	binary.LittleEndian.PutUint64(b[24:32], spillTagHash(tag))
	// b[32:56) reserved, zero.
	binary.LittleEndian.PutUint64(b[56:64], spillChecksum(b[0:56]))
}

// validateSpillHeader checks a mapped file's header and returns its
// buckets per shard.
func validateSpillHeader(path string, b []byte, tag string) (int, error) {
	bad := func(reason string) (int, error) {
		return 0, &SpillFormatError{Path: path, Reason: reason}
	}
	if int64(len(b)) < spillHdrSize {
		return bad("shorter than the header")
	}
	if string(b[0:8]) != spillMagic {
		return bad("bad magic (not a spill file)")
	}
	if got := binary.LittleEndian.Uint64(b[56:64]); got != spillChecksum(b[0:56]) {
		return bad("header checksum mismatch (truncated or corrupt)")
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != spillVersion {
		return bad(fmt.Sprintf("format version %d (this build reads %d)", v, spillVersion))
	}
	if sb := binary.LittleEndian.Uint32(b[12:16]); sb != memoShardBits {
		return bad(fmt.Sprintf("shard geometry %d bits (this build uses %d)", sb, memoShardBits))
	}
	if th := binary.LittleEndian.Uint64(b[24:32]); th != spillTagHash(tag) {
		return bad("tag mismatch (written by a different build or deployment)")
	}
	per := binary.LittleEndian.Uint64(b[16:24])
	if per < 1 || per&(per-1) != 0 {
		return bad(fmt.Sprintf("buckets per shard %d is not a positive power of two", per))
	}
	// Compare bucket counts, not byte sizes: a huge per would wrap the
	// multiplication.
	size := int64(len(b))
	if have := uint64(size-spillHdrSize) / (memoShardN * 2 * memoEntryCost); per != have ||
		size != spillFileSize(int(per)) {
		return bad(fmt.Sprintf("file is %d bytes, header geometry needs %d buckets per shard", size, per))
	}
	return int(per), nil
}

// Close syncs and unmaps a spill table's file. The shard slices are
// dropped first, so a probe or store after Close panics on an index
// rather than faulting on unmapped memory. Nil-safe and idempotent; a
// table without a spill closes trivially.
func (m *Memo) Close() error {
	if m == nil || m.spill == nil {
		return nil
	}
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		s.buckets = nil
		s.mu.Unlock()
	}
	err := m.spill.Close()
	m.spill = nil
	return err
}
