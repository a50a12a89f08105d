// Code generated by "go run ./cmd/netgen -preset sortkernels"; DO NOT EDIT.

// Package sortkernels holds branchless sorting-network kernels for
// widths 2..16, generated from the curated depth-optimal networks in
// internal/netbuild. Each kernel keeps the whole slice in locals and
// applies a fixed compare-exchange schedule, level by level, with no
// data-dependent branches at integer element types — the comparator
// count is the depth-optimal network's size, and the level grouping
// leaves independent exchanges adjacent for the CPU to overlap. One
// kernel family is generic over cmp.Ordered (Sort<N>Ordered, behind
// Ordered), the other over a less function (Sort<N>Func, behind Func).
//
// The batch entry points (Batch, BatchFlat) sort many same-width
// slices per call: generic column-major and row-major pure-Go kernels
// for every width, plus AVX-512 columnar kernels for int, uint64 and
// float64 and layout transposes on amd64, selected at init when the
// CPU supports them.
//
// Regenerate with `make netgen`; `make netgen-check` fails the build
// if the committed files drift from what cmd/netgen emits.
package sortkernels

import "cmp"

// Kernel widths span [MinWidth, MaxWidth]; Widths lists the ones
// actually present.
const (
	MinWidth = 2
	MaxWidth = 16
)

// Widths returns the kernel widths available, ascending.
func Widths() []int {
	return []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
}

// Ordered sorts s in place with the generated generic kernel
// matching len(s) and reports whether one was available; slices
// shorter than 2 are trivially sorted. When it returns false, s is
// untouched. Inputs containing NaN come out in unspecified order.
func Ordered[T cmp.Ordered](s []T) bool {
	switch len(s) {
	case 0, 1:
	case 2:
		Sort2Ordered(s)
	case 3:
		Sort3Ordered(s)
	case 4:
		Sort4Ordered(s)
	case 5:
		Sort5Ordered(s)
	case 6:
		Sort6Ordered(s)
	case 7:
		Sort7Ordered(s)
	case 8:
		Sort8Ordered(s)
	case 9:
		Sort9Ordered(s)
	case 10:
		Sort10Ordered(s)
	case 11:
		Sort11Ordered(s)
	case 12:
		Sort12Ordered(s)
	case 13:
		Sort13Ordered(s)
	case 14:
		Sort14Ordered(s)
	case 15:
		Sort15Ordered(s)
	case 16:
		Sort16Ordered(s)
	default:
		return false
	}
	return true
}

// Func sorts s in place by less with the generated generic kernel
// matching len(s) and reports whether one was available; slices
// shorter than 2 are trivially sorted. When it returns false, s is
// untouched. The sort is not stable.
func Func[T any](s []T, less func(a, b T) bool) bool {
	switch len(s) {
	case 0, 1:
	case 2:
		Sort2Func(s, less)
	case 3:
		Sort3Func(s, less)
	case 4:
		Sort4Func(s, less)
	case 5:
		Sort5Func(s, less)
	case 6:
		Sort6Func(s, less)
	case 7:
		Sort7Func(s, less)
	case 8:
		Sort8Func(s, less)
	case 9:
		Sort9Func(s, less)
	case 10:
		Sort10Func(s, less)
	case 11:
		Sort11Func(s, less)
	case 12:
		Sort12Func(s, less)
	case 13:
		Sort13Func(s, less)
	case 14:
		Sort14Func(s, less)
	case 15:
		Sort15Func(s, less)
	case 16:
		Sort16Func(s, less)
	default:
		return false
	}
	return true
}

// levels holds the compare-exchange schedule of every kernel, level
// by level, as (min, max) wire pairs — the source of truth the tests
// verify exhaustively against the 0-1 principle.
var levels = map[int][][][2]int{
	2: {
		{{0, 1}},
	},
	3: {
		{{0, 2}},
		{{0, 1}},
		{{1, 2}},
	},
	4: {
		{{0, 2}, {1, 3}},
		{{0, 1}, {2, 3}},
		{{1, 2}},
	},
	5: {
		{{0, 3}, {1, 4}},
		{{0, 2}, {1, 3}},
		{{0, 1}, {2, 4}},
		{{1, 2}, {3, 4}},
		{{2, 3}},
	},
	6: {
		{{0, 5}, {1, 3}, {2, 4}},
		{{1, 2}, {3, 4}},
		{{0, 3}, {2, 5}},
		{{0, 1}, {2, 3}, {4, 5}},
		{{1, 2}, {3, 4}},
	},
	7: {
		{{0, 6}, {2, 3}, {4, 5}},
		{{0, 2}, {1, 4}, {3, 6}},
		{{0, 1}, {2, 5}, {3, 4}},
		{{1, 2}, {4, 6}},
		{{2, 3}, {4, 5}},
		{{1, 2}, {3, 4}, {5, 6}},
	},
	8: {
		{{0, 2}, {1, 3}, {4, 6}, {5, 7}},
		{{0, 4}, {1, 5}, {2, 6}, {3, 7}},
		{{0, 1}, {2, 3}, {4, 5}, {6, 7}},
		{{2, 4}, {3, 5}},
		{{1, 4}, {3, 6}},
		{{1, 2}, {3, 4}, {5, 6}},
	},
	9: {
		{{0, 3}, {1, 7}, {2, 5}, {4, 8}},
		{{0, 7}, {2, 4}, {3, 8}, {5, 6}},
		{{0, 2}, {1, 3}, {4, 5}, {7, 8}},
		{{1, 4}, {3, 6}, {5, 7}},
		{{0, 1}, {2, 4}, {3, 5}, {6, 8}},
		{{2, 3}, {4, 5}, {6, 7}},
		{{1, 2}, {3, 4}, {5, 6}},
	},
	10: {
		{{0, 1}, {2, 5}, {3, 6}, {4, 7}, {8, 9}},
		{{0, 6}, {1, 8}, {2, 4}, {3, 9}, {5, 7}},
		{{0, 2}, {1, 3}, {4, 5}, {6, 8}, {7, 9}},
		{{0, 1}, {2, 7}, {3, 5}, {4, 6}, {8, 9}},
		{{1, 2}, {3, 4}, {5, 6}, {7, 8}},
		{{1, 3}, {2, 4}, {5, 7}, {6, 8}},
		{{2, 3}, {4, 5}, {6, 7}},
	},
	11: {
		{{0, 9}, {1, 6}, {2, 4}, {3, 7}, {5, 8}},
		{{0, 1}, {3, 5}, {4, 10}, {6, 9}, {7, 8}},
		{{1, 3}, {2, 5}, {4, 7}, {8, 10}},
		{{0, 4}, {1, 2}, {3, 7}, {5, 9}, {6, 8}},
		{{0, 1}, {2, 6}, {4, 5}, {7, 8}, {9, 10}},
		{{2, 4}, {3, 6}, {5, 7}, {8, 9}},
		{{1, 2}, {3, 4}, {5, 6}, {7, 8}},
		{{2, 3}, {4, 5}, {6, 7}},
	},
	12: {
		{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}},
		{{0, 6}, {1, 7}, {2, 9}, {3, 8}, {4, 10}, {5, 11}},
		{{0, 11}, {1, 3}, {2, 5}, {4, 7}, {6, 9}, {8, 10}},
		{{0, 2}, {1, 4}, {3, 5}, {6, 8}, {7, 10}, {9, 11}},
		{{0, 1}, {2, 4}, {3, 8}, {7, 9}, {10, 11}},
		{{1, 2}, {3, 6}, {4, 7}, {5, 8}, {9, 10}},
		{{2, 3}, {4, 6}, {5, 7}, {8, 9}},
		{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}},
	},
	13: {
		{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}},
		{{0, 2}, {1, 3}, {4, 6}, {5, 7}, {8, 10}, {9, 11}},
		{{0, 4}, {1, 6}, {2, 5}, {3, 7}, {8, 12}},
		{{0, 8}, {1, 9}, {2, 10}, {3, 11}, {4, 12}},
		{{1, 2}, {3, 12}, {4, 8}, {5, 9}, {6, 10}, {7, 11}},
		{{2, 8}, {3, 10}, {5, 12}, {6, 9}},
		{{1, 2}, {3, 8}, {5, 6}, {7, 12}, {9, 10}},
		{{2, 4}, {3, 5}, {6, 8}, {7, 9}, {10, 12}},
		{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}, {11, 12}},
	},
	14: {
		{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}, {12, 13}},
		{{0, 2}, {1, 3}, {4, 6}, {5, 7}, {8, 10}, {9, 11}},
		{{0, 4}, {1, 6}, {2, 5}, {3, 7}, {8, 12}, {10, 13}},
		{{0, 8}, {1, 9}, {2, 10}, {3, 11}, {4, 12}, {5, 13}},
		{{1, 2}, {3, 12}, {4, 8}, {5, 9}, {6, 10}, {7, 11}},
		{{2, 8}, {3, 10}, {5, 12}, {6, 9}, {7, 13}},
		{{1, 2}, {3, 8}, {5, 6}, {7, 12}, {9, 10}},
		{{2, 4}, {3, 5}, {6, 8}, {7, 9}, {10, 12}, {11, 13}},
		{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}, {11, 12}},
	},
	15: {
		{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}, {12, 13}},
		{{0, 2}, {1, 3}, {4, 6}, {5, 7}, {8, 10}, {9, 11}, {12, 14}},
		{{0, 4}, {1, 6}, {2, 5}, {3, 7}, {8, 12}, {9, 14}, {10, 13}},
		{{0, 8}, {1, 9}, {2, 10}, {3, 11}, {4, 12}, {5, 13}, {6, 14}},
		{{1, 2}, {3, 12}, {4, 8}, {5, 9}, {6, 10}, {7, 11}, {13, 14}},
		{{2, 8}, {3, 10}, {5, 12}, {6, 9}, {7, 13}},
		{{1, 2}, {3, 8}, {5, 6}, {7, 12}, {9, 10}, {13, 14}},
		{{2, 4}, {3, 5}, {6, 8}, {7, 9}, {10, 12}, {11, 13}},
		{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}, {11, 12}, {13, 14}},
	},
	16: {
		{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}, {12, 13}, {14, 15}},
		{{0, 2}, {1, 3}, {4, 6}, {5, 7}, {8, 10}, {9, 11}, {12, 14}, {13, 15}},
		{{0, 4}, {1, 6}, {2, 5}, {3, 7}, {8, 12}, {9, 14}, {10, 13}, {11, 15}},
		{{0, 8}, {1, 9}, {2, 10}, {3, 11}, {4, 12}, {5, 13}, {6, 14}, {7, 15}},
		{{1, 2}, {3, 12}, {4, 8}, {5, 9}, {6, 10}, {7, 11}, {13, 14}},
		{{2, 8}, {3, 10}, {5, 12}, {6, 9}, {7, 13}},
		{{1, 2}, {3, 8}, {5, 6}, {7, 12}, {9, 10}, {13, 14}},
		{{0, 1}, {2, 4}, {3, 5}, {6, 8}, {7, 9}, {10, 12}, {11, 13}, {14, 15}},
		{{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}, {11, 12}, {13, 14}},
	},
}

// outputPerms holds the output relabelings of kernels compiled from
// register-model networks; widths not present use the identity.
var outputPerms = map[int][]int{}

// Levels returns a copy of the width-n kernel's compare-exchange
// schedule (nil if no kernel of that width exists).
func Levels(n int) [][][2]int {
	src, ok := levels[n]
	if !ok {
		return nil
	}
	out := make([][][2]int, len(src))
	for i, lv := range src {
		out[i] = append([][2]int(nil), lv...)
	}
	return out
}

// OutputPerm returns the output relabeling g of the width-n kernel
// (out[i] = v[g[i]] after the exchanges); the identity unless the
// kernel was compiled from a register-model network.
func OutputPerm(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	if p, ok := outputPerms[n]; ok {
		copy(g, p)
	}
	return g
}

// Depth returns the level count of the width-n kernel (0 if none).
func Depth(n int) int {
	return len(levels[n])
}

// Size returns the compare-exchange count of the width-n kernel
// (0 if none).
func Size(n int) int {
	total := 0
	for _, lv := range levels[n] {
		total += len(lv)
	}
	return total
}
