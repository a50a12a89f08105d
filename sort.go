package shufflenet

import (
	"cmp"
	"slices"
	"unsafe"

	"shufflenet/sortkernels"
)

// Sort sorts s in place in ascending order. For len(s) <=
// sortkernels.MaxWidth (16) it dispatches to a generated
// sorting-network kernel — the curated depth-optimal comparator
// schedule for that width, fully unrolled with every element held in a
// local and generic over the element type; at integer types its
// compare-exchanges compile to conditional moves rather than branches.
// A []string is sorted on abbreviated keys: each string becomes a
// uint64 (its first 7 bytes above its position), the kernel sorts the
// keys, and strings whose keys tie are sorted again the same way on
// their next 7 bytes. Every other ordered type, named string types
// included, takes the generic kernel directly. Longer slices fall back
// to slices.Sort.
//
// Semantics match slices.Sort exactly, NaNs included: a comparator
// network cannot order elements an incomparable NaN sits between, so
// at float element types Sort first scans for NaN (a handful of
// self-compares) and hands any hit to slices.Sort, which places NaNs
// first.
func Sort[T cmp.Ordered](s []T) {
	if len(s) <= sortkernels.MaxWidth {
		if v, ok := any(s).([]string); ok {
			sortStrings(v)
			return
		}
		if !hasNaN(s) && sortkernels.Ordered(s) {
			return
		}
	}
	slices.Sort(s)
}

// hasNaN reports whether s contains a NaN (the only value with v != v).
// At non-float element types it is constant false and costs nothing.
func hasNaN[T cmp.Ordered](s []T) bool {
	if !isFloat[T]() {
		return false
	}
	for _, v := range s {
		if v != v {
			return true
		}
	}
	return false
}

// isFloat reports whether T is a float kind. It stores a NaN's bits in
// a T of 4 or 8 bytes, the sizes of the float kinds, and compares it
// with itself: only a float compare finds a value unequal to itself.
// At every other kind the compiler folds the compare, so hasNaN's scan
// compiles away instead of running as an empty loop (reflect would
// cost a few ns on every call). Where a string header is 8 bytes
// (32-bit platforms) it must not receive those bits, so such Ts count
// as floats and scan.
func isFloat[T cmp.Ordered]() bool {
	var x T
	switch unsafe.Sizeof(x) {
	case 4:
		*(*uint32)(unsafe.Pointer(&x)) = 0x7fc00000
	case 8:
		if unsafe.Sizeof(x) == unsafe.Sizeof("") {
			return true
		}
		*(*uint64)(unsafe.Pointer(&x)) = 0x7ff8000000000000
	default:
		return false
	}
	return x != x
}

// SortFunc sorts s in place by the strict weak ordering less,
// dispatching to the generated network kernels below
// sortkernels.MaxWidth elements exactly like Sort (one less call per
// comparator) and to slices.SortFunc above. The sort is not stable.
func SortFunc[T any](s []T, less func(a, b T) bool) {
	if len(s) <= sortkernels.MaxWidth && sortkernels.Func(s, less) {
		return
	}
	slices.SortFunc(s, func(a, b T) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	})
}
