package shufflenet

import (
	"encoding/binary"
	"sync"

	"shufflenet/sortkernels"
)

// String sorting on abbreviated keys.
//
// A network kernel over []string pays a full string compare — two
// header loads, a length-bounded memcmp and a data-dependent branch —
// at every comparator. The []string paths of Sort, SortBatchFlat and
// SortBatchCols instead turn the string in slot w into one uint64 key:
// 7 bytes of it, big-endian and zero-padded, above the 8-bit position
// w. The generic kernels sort the keys (the columnar AVX-512 ones in
// batch), and each sorted key's low byte names the string that
// belongs in its slot. Zero-padded prefixes are monotone — a < b
// implies prefix(a) <= prefix(b) — so after that permutation only a
// run of keys that tie can be out of order, and each such run is
// sorted again the same way on its next 7 bytes. In Sort, a row whose
// keys all tie, such as URLs that share "https:/", is keyed on its
// next 7 bytes before any sort. The result equals slices.Sort's; see
// DESIGN.md decision 16.

// stringKey returns the key of s in slot w (w < 256): the first 7
// bytes of s, big-endian and zero-padded, above w.
func stringKey(s string, w int) uint64 {
	if len(s) >= 8 {
		return binary.BigEndian.Uint64([]byte(s))&^0xff | uint64(w)
	}
	return shortPrefix(s) | uint64(w)
}

// shortPrefix is stringKey's prefix for len(s) < 8: the bytes of s
// big-endian from bit 63 down, zero below them. Copying s into a
// zeroed [8]byte instead, for every length, costs a memmove call and
// an 8-byte reload of its narrower stores: about 1.2x on the
// string-n8/sort and string-prefix-n16/sort bench legs. It stays out
// of line so that stringKey's 8-byte case inlines into the key loops.
//
//go:noinline
func shortPrefix(s string) uint64 {
	n := len(s)
	if n >= 4 {
		// Two overlapping 4-byte loads: bytes 0..3, and bytes n-4..n-1
		// shifted so byte i lands at bit 56-8i.
		hi := uint64(binary.BigEndian.Uint32([]byte(s)))
		lo := uint64(binary.BigEndian.Uint32([]byte(s[n-4:])))
		return hi<<32 | lo<<(64-8*n)
	}
	var p uint64
	for i := 0; i < n; i++ {
		p |= uint64(s[i]) << (56 - 8*i)
	}
	return p
}

// sortStrings sorts s (len(s) <= sortkernels.MaxWidth) on abbreviated
// keys.
func sortStrings(s []string) {
	var keys [sortkernels.MaxWidth]uint64
	var diff uint64
	for w, v := range s {
		keys[w] = stringKey(v, w)
		diff |= keys[w] ^ keys[0]
	}
	if diff>>8 == 0 {
		// Every key ties: key the strings on later bytes.
		if len(s) > 1 {
			sortRun(s, 7)
		}
		return
	}
	sortKeyed(s, keys[:len(s)], 0)
}

// keyRun writes the key of each string of run into keys, from offset
// d on; the strings agree on their first d bytes once zero-padded.
// While every key ties it moves on 7 bytes. It returns the offset the
// keys start at, or -1 once only zero padding is left: every string is
// then a prefix of the longer ones, so the keys hold lengths.
func keyRun(run []string, keys []uint64, d int) int {
	for {
		var diff uint64
		padding := true
		for w, s := range run {
			keys[w] = stringKey(s[min(d, len(s)):], w)
			diff |= keys[w] ^ keys[0]
			padding = padding && len(s) <= d
		}
		if padding {
			for w, s := range run {
				keys[w] = uint64(len(s))<<8 | uint64(w)
			}
			return -1
		}
		if diff>>8 != 0 {
			return d
		}
		d += 7
	}
}

// sortRun sorts run (2 <= len(run) <= sortkernels.MaxWidth), whose
// strings agree on their first d bytes once zero-padded, on keys from
// offset d on.
func sortRun(run []string, d int) {
	var keys [sortkernels.MaxWidth]uint64
	d = keyRun(run, keys[:], d)
	sortKeyed(run, keys[:len(run)], d)
}

// sortKeyed sorts run by its keys k, taken from offset d as keyRun
// returns it. sortkernels.Ordered calls each width's kernel directly,
// so the callers' key arrays stay on the stack.
func sortKeyed(run []string, k []uint64, d int) {
	sortkernels.Ordered(k)
	var orig [sortkernels.MaxWidth]string
	copy(orig[:], run)
	for w, key := range k {
		run[w] = orig[byte(key)]
	}
	sortTies(run, k, 0, 1, d)
}

// sortTies sorts each run of row whose sorted keys tie on the bytes
// after the keys'. Slot w's key is at keys[w*m+r], and d is the offset
// the keys start at, as keyRun returned it. Keys that differ are
// already in string order, and lengths (d < 0) tie only for equal
// strings.
func sortTies(row []string, keys []uint64, r, m, d int) {
	if d < 0 {
		return
	}
	lo := 0
	for w := 1; w <= len(row); w++ {
		if w == len(row) || keys[w*m+r]>>8 != keys[lo*m+r]>>8 {
			if w-lo > 1 {
				sortRun(row[lo:w], d+7)
			}
			lo = w
		}
	}
}

// stringChunk is how many elements the batch path keys and sorts per
// kernel call: whole rows, at most stringChunk/n of them, so that the
// keys fit one fixed-size pooled array.
const stringChunk = 256

// stringKeysPool holds the batch path's key scratch, one chunk's worth.
var stringKeysPool = sync.Pool{New: func() any { return new([stringChunk]uint64) }}

// sortStringBatch sorts m rows of n strings (2 <= n <=
// sortkernels.BatchMaxWidth) in place, slot w of row r at
// data[r*rowStride+w*colStride]. The keys are built column-major, so
// the batch kernels need no transpose. A row whose keys all tie is
// keyed on later bytes by the tie pass, after a wasted sort of its
// first keys: checking every row for that up front cost more on rows
// whose keys differ than it saved on rows that share a prefix.
func sortStringBatch(data []string, n, m, rowStride, colStride int) {
	kp := stringKeysPool.Get().(*[stringChunk]uint64)
	var row [sortkernels.BatchMaxWidth]string
	for r0, mc := 0, stringChunk/n; r0 < m; r0 += mc {
		c := min(mc, m-r0)
		keys := kp[:n*c]
		for r := 0; r < c; r++ {
			at := (r0 + r) * rowStride
			for w := 0; w < n; w++ {
				keys[w*c+r] = stringKey(data[at+w*colStride], w)
			}
		}
		sortkernels.Batch(keys, c)
		for r := 0; r < c; r++ {
			at := (r0 + r) * rowStride
			for w := 0; w < n; w++ {
				row[w] = data[at+int(byte(keys[w*c+r]))*colStride]
			}
			sortTies(row[:n], keys, r, c, 0)
			for w := 0; w < n; w++ {
				data[at+w*colStride] = row[w]
			}
		}
	}
	stringKeysPool.Put(kp)
}
