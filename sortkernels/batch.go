// Code generated by "go run ./cmd/netgen -preset sortkernels"; DO NOT EDIT.

// Batch entry points: sort many same-width slices per call.
//
// Batch takes the column-major ("vertical") layout — data holds n
// columns of length m, column w at data[w*m:(w+1)*m], and logical row
// r is the n values {data[w*m+r]}. Every row is sorted in place.
// BatchFlat takes the row-major layout — m contiguous rows of width
// n. Both report whether a kernel of that width was available; on
// false the data is untouched.
package sortkernels

import (
	"cmp"
	"sync"
	"unsafe"
)

// Batch kernel widths span [BatchMinWidth, BatchMaxWidth];
// BatchWidths lists the ones actually present.
const (
	BatchMinWidth = 2
	BatchMaxWidth = 16
)

// BatchWidths returns the batch kernel widths available, ascending.
func BatchWidths() []int {
	return []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
}

// batchSIMDAvail records whether the CPU supports the AVX-512 batch
// kernels (set at init by the amd64 build); batchSIMDOn is the live
// switch.
var (
	batchSIMDAvail bool
	batchSIMDOn    bool
)

// BatchSIMDAvailable reports whether AVX-512 batch kernels are
// compiled in and supported by this CPU.
func BatchSIMDAvailable() bool { return batchSIMDAvail }

// BatchSIMD reports whether the batch entry points currently use the
// AVX-512 kernels.
func BatchSIMD() bool { return batchSIMDOn }

// SetBatchSIMD toggles the AVX-512 batch kernels (a no-op request when
// they are unavailable) and returns the previous setting. It is meant
// for tests and benchmarks that pin down one implementation; it is not
// synchronized with concurrent Batch calls.
func SetBatchSIMD(on bool) (prev bool) {
	prev = batchSIMDOn
	batchSIMDOn = on && batchSIMDAvail
	return prev
}

// batchDims validates a column-major batch shape and returns its
// width. trivial means there is nothing to sort (no rows, or rows
// shorter than 2); ok is false when the shape fits no kernel.
func batchDims(lenData, m, maxWidth int) (n int, trivial, ok bool) {
	if lenData == 0 {
		return 0, true, m >= 0
	}
	if m <= 0 {
		return 0, false, false
	}
	n = lenData / m
	if n*m != lenData || n > maxWidth {
		return 0, false, false
	}
	return n, n < 2, true
}

// batchFlatDims validates a row-major batch shape and returns its row
// count, with the same trivial/ok split as batchDims.
func batchFlatDims(lenData, width, maxWidth int) (m int, trivial, ok bool) {
	if lenData == 0 {
		return 0, true, width >= 0
	}
	if width <= 0 {
		return 0, false, false
	}
	m = lenData / width
	if m*width != lenData || width > maxWidth {
		return 0, false, false
	}
	return m, width < 2, true
}

// batchTransTo and batchTransFrom hold the AVX-512 transpose helpers
// between the row-major and column-major layouts (filled in by the
// amd64 init; element type is any 64-bit scalar, hence the untyped
// pointers). batchTransTo[n] gathers m rows of width n into columns;
// batchTransFrom[n] scatters them back.
var (
	batchTransTo   [BatchMaxWidth + 1]func(dst, src unsafe.Pointer, m int)
	batchTransFrom [BatchMaxWidth + 1]func(dst, src unsafe.Pointer, m int)
)

// The AVX-512 columnar kernels of each element type, filled in by the
// amd64 init, and the column-major scratch of BatchFlat's AVX-512 path.
var (
	simdColsIntKernels     [BatchMaxWidth + 1]func(data []int, m int)
	simdColsUint64Kernels  [BatchMaxWidth + 1]func(data []uint64, m int)
	simdColsFloat64Kernels [BatchMaxWidth + 1]func(data []float64, m int)
	batchScratchInt        = sync.Pool{New: func() any { return new([]int) }}
	batchScratchUint64     = sync.Pool{New: func() any { return new([]uint64) }}
	batchScratchFloat64    = sync.Pool{New: func() any { return new([]float64) }}
)

// simdCols runs the width-n AVX-512 columnar kernel on data when its
// element type has one, and reports whether it did.
func simdCols[T cmp.Ordered](data []T, n, m int) bool {
	switch s := any(data).(type) {
	case []int:
		if k := simdColsIntKernels[n]; k != nil {
			k(s, m)
			return true
		}
	case []uint64:
		if k := simdColsUint64Kernels[n]; k != nil {
			k(s, m)
			return true
		}
	case []float64:
		if k := simdColsFloat64Kernels[n]; k != nil {
			k(s, m)
			return true
		}
	}
	return false
}

// simdFlat sorts the m row-major rows of data with the width-wide
// AVX-512 kernel when its element type has one, and reports whether it
// did.
func simdFlat[T cmp.Ordered](data []T, width, m int) bool {
	if batchTransTo[width] == nil {
		return false
	}
	switch s := any(data).(type) {
	case []int:
		if k := simdColsIntKernels[width]; k != nil {
			simdTransposed(s, width, m, k, &batchScratchInt)
			return true
		}
	case []uint64:
		if k := simdColsUint64Kernels[width]; k != nil {
			simdTransposed(s, width, m, k, &batchScratchUint64)
			return true
		}
	case []float64:
		if k := simdColsFloat64Kernels[width]; k != nil {
			simdTransposed(s, width, m, k, &batchScratchFloat64)
			return true
		}
	}
	return false
}

// simdTransposed transposes the m rows of data into pooled
// column-major scratch, sorts the columns with k, and transposes them
// back.
func simdTransposed[E int | uint64 | float64](data []E, width, m int, k func(data []E, m int), pool *sync.Pool) {
	sp := pool.Get().(*[]E)
	s := *sp
	if cap(s) < len(data) {
		s = make([]E, len(data))
	}
	s = s[:len(data)]
	batchTransTo[width](unsafe.Pointer(&s[0]), unsafe.Pointer(&data[0]), m)
	k(s, m)
	batchTransFrom[width](unsafe.Pointer(&data[0]), unsafe.Pointer(&s[0]), m)
	*sp = s
	pool.Put(sp)
}

// Batch sorts, in place, every row of the column-major batch: data
// holds len(data)/m columns of length m, column w at
// data[w*m:(w+1)*m]. It reports whether a kernel of that width was
// available; on false the data is untouched. int, uint64 and float64
// batches run the AVX-512 kernels when they are enabled; every other
// element type, and those three without AVX-512, run the generic Go
// kernels. Input must be NaN-free (the shufflenet façades prescan):
// the kernels' min and max would turn one NaN into two. ±0 bit
// patterns are preserved as a multiset.
func Batch[T cmp.Ordered](data []T, m int) bool {
	n, trivial, ok := batchDims(len(data), m, BatchMaxWidth)
	if !ok {
		return false
	}
	if trivial {
		return true
	}
	if batchSIMDOn && simdCols(data, n, m) {
		return true
	}
	switch n {
	case 2:
		batchCols2Ordered(data, m)
	case 3:
		batchCols3Ordered(data, m)
	case 4:
		batchCols4Ordered(data, m)
	case 5:
		batchCols5Ordered(data, m)
	case 6:
		batchCols6Ordered(data, m)
	case 7:
		batchCols7Ordered(data, m)
	case 8:
		batchCols8Ordered(data, m)
	case 9:
		batchCols9Ordered(data, m)
	case 10:
		batchCols10Ordered(data, m)
	case 11:
		batchCols11Ordered(data, m)
	case 12:
		batchCols12Ordered(data, m)
	case 13:
		batchCols13Ordered(data, m)
	case 14:
		batchCols14Ordered(data, m)
	case 15:
		batchCols15Ordered(data, m)
	case 16:
		batchCols16Ordered(data, m)
	default:
		return false
	}
	return true
}

// BatchFlat sorts, in place, every row of the row-major batch: data
// holds len(data)/width contiguous rows of the given width. It reports
// whether a kernel of that width was available; on false the data is
// untouched. Kernels and input contract as for Batch; the AVX-512 path
// transposes through pooled scratch.
func BatchFlat[T cmp.Ordered](data []T, width int) bool {
	m, trivial, ok := batchFlatDims(len(data), width, BatchMaxWidth)
	if !ok {
		return false
	}
	if trivial {
		return true
	}
	if batchSIMDOn && simdFlat(data, width, m) {
		return true
	}
	switch width {
	case 2:
		batchFlat2Ordered(data, m)
	case 3:
		batchFlat3Ordered(data, m)
	case 4:
		batchFlat4Ordered(data, m)
	case 5:
		batchFlat5Ordered(data, m)
	case 6:
		batchFlat6Ordered(data, m)
	case 7:
		batchFlat7Ordered(data, m)
	case 8:
		batchFlat8Ordered(data, m)
	case 9:
		batchFlat9Ordered(data, m)
	case 10:
		batchFlat10Ordered(data, m)
	case 11:
		batchFlat11Ordered(data, m)
	case 12:
		batchFlat12Ordered(data, m)
	case 13:
		batchFlat13Ordered(data, m)
	case 14:
		batchFlat14Ordered(data, m)
	case 15:
		batchFlat15Ordered(data, m)
	case 16:
		batchFlat16Ordered(data, m)
	default:
		return false
	}
	return true
}
