package shufflenet

import (
	"cmp"
	"slices"

	"shufflenet/sortkernels"
)

// Sort sorts s in place in ascending order. For len(s) <=
// sortkernels.MaxWidth (16) it dispatches to a generated
// sorting-network kernel — the curated depth-optimal comparator
// schedule for that width, fully unrolled with every element held in a
// local, so the int, uint64 and float64 element types take concrete
// fast paths whose compare-exchanges compile to conditional moves
// rather than branches. A []string is sorted on abbreviated keys: each
// string becomes a uint64 (its first 7 bytes above its position), the
// uint64 kernel sorts the keys, and strings whose keys tie are sorted
// again the same way on their next 7 bytes. Other ordered types, named
// string types included, take the generic kernels. Longer slices fall
// back to slices.Sort.
//
// Semantics match slices.Sort exactly, NaNs included: a comparator
// network cannot order elements an incomparable NaN sits between, so
// the float64 fast path first scans for NaN (a handful of self-compares)
// and hands any hit to slices.Sort, which places NaNs first.
func Sort[T cmp.Ordered](s []T) {
	if len(s) <= sortkernels.MaxWidth {
		switch v := any(s).(type) {
		case []int:
			if sortkernels.Int(v) {
				return
			}
		case []uint64:
			if sortkernels.Uint64(v) {
				return
			}
		case []float64:
			if hasNaN(v) {
				break
			}
			if sortkernels.Float64(v) {
				return
			}
		case []string:
			sortStrings(v)
			return
		default:
			if sortkernels.Ordered(s) {
				return
			}
		}
	}
	slices.Sort(s)
}

// hasNaN reports whether s contains a NaN (the only value with v != v).
func hasNaN(s []float64) bool {
	for _, v := range s {
		if v != v {
			return true
		}
	}
	return false
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
