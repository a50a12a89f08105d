package shufflenet

import (
	"cmp"
	"fmt"
	"sync"

	"shufflenet/sortkernels"
)

// batchMinRows is the row count below which the contiguous-layout
// batch entry points sort per slice instead: with only a few rows the
// per-call batch overhead (pooled scratch, SIMD transpose) outweighs
// the amortized comparator win.
const batchMinRows = 8

// SortBatchCols sorts every logical row of a column-major batch in
// place: data holds n = len(data)/m columns of length m, column w at
// data[w*m:(w+1)*m], and row r is the n values {data[w*m+r]}. This is
// the fastest batch layout — each comparator of the width-n network
// becomes one min/max pass across all rows at once (AVX-512 for int,
// uint64 and float64 on supporting amd64 CPUs, generic Go otherwise),
// with no transpose and no allocation.
//
// A []string batch is sorted on abbreviated uint64 keys (see Sort):
// the columnar batch kernels sort the keys, each row's strings are
// permuted to match, and runs whose keys tie are sorted again on their
// next 7 bytes.
//
// len(data) must be a multiple of m (it panics otherwise: a malformed
// shape cannot be sorted meaningfully). Widths above
// sortkernels.BatchMaxWidth (16) and float batches containing NaN are
// handled row by row with Sort semantics.
func SortBatchCols[T cmp.Ordered](data []T, m int) {
	if m <= 0 {
		if len(data) != 0 || m < 0 {
			panic(fmt.Sprintf("shufflenet: SortBatchCols: %d elements cannot form columns of length %d", len(data), m))
		}
		return
	}
	n := len(data) / m
	if n*m != len(data) {
		panic(fmt.Sprintf("shufflenet: SortBatchCols: %d elements cannot form columns of length %d", len(data), m))
	}
	if n < 2 {
		return
	}
	if n <= sortkernels.BatchMaxWidth {
		if s, ok := any(data).([]string); ok {
			sortStringBatch(s, n, m, 1, m)
			return
		}
		if !hasNaN(data) && sortkernels.Batch(data, m) {
			return
		}
	}
	// No kernel of this width (or NaNs present): gather each strided
	// row, sort it with full Sort semantics, scatter it back.
	row := make([]T, n)
	for r := 0; r < m; r++ {
		for w := 0; w < n; w++ {
			row[w] = data[w*m+r]
		}
		Sort(row)
		for w := 0; w < n; w++ {
			data[w*m+r] = row[w]
		}
	}
}

// SortBatchFlat sorts every contiguous width-sized row of a row-major
// batch in place: data holds m = len(data)/width rows, row r at
// data[r*width:(r+1)*width]. For kernel widths (2..16) and enough rows
// it runs the columnar batch kernels through pooled transpose scratch
// (a []string batch instead writes its abbreviated keys, see Sort,
// column-major into pooled scratch, so no transpose is needed);
// otherwise it sorts row by row.
//
// len(data) must be a multiple of width (it panics otherwise). Float
// batches containing NaN fall back to per-row Sort semantics.
func SortBatchFlat[T cmp.Ordered](data []T, width int) {
	if width <= 0 {
		if len(data) != 0 || width < 0 {
			panic(fmt.Sprintf("shufflenet: SortBatchFlat: %d elements cannot form rows of width %d", len(data), width))
		}
		return
	}
	m := len(data) / width
	if m*width != len(data) {
		panic(fmt.Sprintf("shufflenet: SortBatchFlat: %d elements cannot form rows of width %d", len(data), width))
	}
	if width < 2 {
		return
	}
	if width <= sortkernels.BatchMaxWidth && m >= batchMinRows {
		if s, ok := any(data).([]string); ok {
			sortStringBatch(s, width, m, width, 1)
			return
		}
		if !hasNaN(data) && sortkernels.BatchFlat(data, width) {
			return
		}
	}
	for r := 0; r < m; r++ {
		Sort(data[r*width : (r+1)*width])
	}
}

// Pooled row-major gather buffers for SortBatch's gathered element
// types.
var (
	batchIntPool     = sync.Pool{New: func() any { return new([]int) }}
	batchUint64Pool  = sync.Pool{New: func() any { return new([]uint64) }}
	batchFloat64Pool = sync.Pool{New: func() any { return new([]float64) }}
)

// sortBatchGathered runs the gather → SortBatchFlat → scatter cycle
// for one gathered element type. SortBatchFlat's NaN prescan covers
// the gathered rows.
func sortBatchGathered[T cmp.Ordered](batch [][]T, width int, pool *sync.Pool) {
	sp := pool.Get().(*[]T)
	s := *sp
	if cap(s) < width*len(batch) {
		s = make([]T, width*len(batch))
	}
	s = s[:width*len(batch)]
	for r, row := range batch {
		copy(s[r*width:], row)
	}
	SortBatchFlat(s, width)
	for r, row := range batch {
		copy(row, s[r*width:(r+1)*width])
	}
	*sp = s
	pool.Put(sp)
}

// SortBatch sorts every slice of batch in place. When the slices share
// one kernel width (2..16) and the batch is big enough to amortize the
// gather, the int, uint64 and float64 element types, whose batch
// kernels have AVX-512 forms, are copied through a pooled row-major
// buffer and sorted by SortBatchFlat in one pass. Everything else —
// ragged batches, long or tiny slices, other element types — is sorted
// slice by slice with Sort, so []string rows take Sort's
// abbreviated-key path one row at a time. Either way the result equals
// calling Sort on every slice.
func SortBatch[T cmp.Ordered](batch [][]T) {
	if len(batch) >= batchMinRows {
		width := len(batch[0])
		uniform := width >= 2 && width <= sortkernels.BatchMaxWidth
		for _, row := range batch {
			if len(row) != width {
				uniform = false
				break
			}
		}
		if uniform {
			switch b := any(batch).(type) {
			case [][]int:
				sortBatchGathered(b, width, &batchIntPool)
				return
			case [][]uint64:
				sortBatchGathered(b, width, &batchUint64Pool)
				return
			case [][]float64:
				sortBatchGathered(b, width, &batchFloat64Pool)
				return
			}
		}
	}
	for _, row := range batch {
		Sort(row)
	}
}
