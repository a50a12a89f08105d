// Code generated by "go run ./cmd/netgen -preset sortkernels"; DO NOT EDIT.

package sortkernels

import "cmp"

// Sort2Ordered sorts s[:2] in place with a sorting-network kernel:
// depth 1, size 1, depth-optimal (proven minimum 1).
// Ordering follows <, so inputs containing NaN come out in
// unspecified order (the input multiset is always preserved).
func Sort2Ordered[T cmp.Ordered](s []T) {
	_ = s[1]
	v0, v1 := s[0], s[1]

	// level 1
	if v1 < v0 {
		v0, v1 = v1, v0
	}

	s[0], s[1] = v0, v1
}

// Sort3Ordered sorts s[:3] in place with a sorting-network kernel:
// depth 3, size 3, depth-optimal (proven minimum 3).
// Ordering follows <, so inputs containing NaN come out in
// unspecified order (the input multiset is always preserved).
func Sort3Ordered[T cmp.Ordered](s []T) {
	_ = s[2]
	v0, v1, v2 := s[0], s[1], s[2]

	// level 1
	if v2 < v0 {
		v0, v2 = v2, v0
	}

	// level 2
	if v1 < v0 {
		v0, v1 = v1, v0
	}

	// level 3
	if v2 < v1 {
		v1, v2 = v2, v1
	}

	s[0], s[1], s[2] = v0, v1, v2
}

// Sort4Ordered sorts s[:4] in place with a sorting-network kernel:
// depth 3, size 5, depth-optimal (proven minimum 3).
// Ordering follows <, so inputs containing NaN come out in
// unspecified order (the input multiset is always preserved).
func Sort4Ordered[T cmp.Ordered](s []T) {
	_ = s[3]
	v0, v1, v2, v3 := s[0], s[1], s[2], s[3]

	// level 1
	if v2 < v0 {
		v0, v2 = v2, v0
	}
	if v3 < v1 {
		v1, v3 = v3, v1
	}

	// level 2
	if v1 < v0 {
		v0, v1 = v1, v0
	}
	if v3 < v2 {
		v2, v3 = v3, v2
	}

	// level 3
	if v2 < v1 {
		v1, v2 = v2, v1
	}

	s[0], s[1], s[2], s[3] = v0, v1, v2, v3
}

// Sort5Ordered sorts s[:5] in place with a sorting-network kernel:
// depth 5, size 9, depth-optimal (proven minimum 5).
// Ordering follows <, so inputs containing NaN come out in
// unspecified order (the input multiset is always preserved).
func Sort5Ordered[T cmp.Ordered](s []T) {
	_ = s[4]
	v0, v1, v2, v3, v4 := s[0], s[1], s[2], s[3], s[4]

	// level 1
	if v3 < v0 {
		v0, v3 = v3, v0
	}
	if v4 < v1 {
		v1, v4 = v4, v1
	}

	// level 2
	if v2 < v0 {
		v0, v2 = v2, v0
	}
	if v3 < v1 {
		v1, v3 = v3, v1
	}

	// level 3
	if v1 < v0 {
		v0, v1 = v1, v0
	}
	if v4 < v2 {
		v2, v4 = v4, v2
	}

	// level 4
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v4 < v3 {
		v3, v4 = v4, v3
	}

	// level 5
	if v3 < v2 {
		v2, v3 = v3, v2
	}

	s[0], s[1], s[2], s[3], s[4] = v0, v1, v2, v3, v4
}

// Sort6Ordered sorts s[:6] in place with a sorting-network kernel:
// depth 5, size 12, depth-optimal (proven minimum 5).
// Ordering follows <, so inputs containing NaN come out in
// unspecified order (the input multiset is always preserved).
func Sort6Ordered[T cmp.Ordered](s []T) {
	_ = s[5]
	v0, v1, v2, v3, v4, v5 := s[0], s[1], s[2], s[3], s[4], s[5]

	// level 1
	if v5 < v0 {
		v0, v5 = v5, v0
	}
	if v3 < v1 {
		v1, v3 = v3, v1
	}
	if v4 < v2 {
		v2, v4 = v4, v2
	}

	// level 2
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v4 < v3 {
		v3, v4 = v4, v3
	}

	// level 3
	if v3 < v0 {
		v0, v3 = v3, v0
	}
	if v5 < v2 {
		v2, v5 = v5, v2
	}

	// level 4
	if v1 < v0 {
		v0, v1 = v1, v0
	}
	if v3 < v2 {
		v2, v3 = v3, v2
	}
	if v5 < v4 {
		v4, v5 = v5, v4
	}

	// level 5
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v4 < v3 {
		v3, v4 = v4, v3
	}

	s[0], s[1], s[2], s[3], s[4], s[5] = v0, v1, v2, v3, v4, v5
}

// Sort7Ordered sorts s[:7] in place with a sorting-network kernel:
// depth 6, size 16, depth-optimal (proven minimum 6).
// Ordering follows <, so inputs containing NaN come out in
// unspecified order (the input multiset is always preserved).
func Sort7Ordered[T cmp.Ordered](s []T) {
	_ = s[6]
	v0, v1, v2, v3, v4, v5, v6 := s[0], s[1], s[2], s[3], s[4], s[5], s[6]

	// level 1
	if v6 < v0 {
		v0, v6 = v6, v0
	}
	if v3 < v2 {
		v2, v3 = v3, v2
	}
	if v5 < v4 {
		v4, v5 = v5, v4
	}

	// level 2
	if v2 < v0 {
		v0, v2 = v2, v0
	}
	if v4 < v1 {
		v1, v4 = v4, v1
	}
	if v6 < v3 {
		v3, v6 = v6, v3
	}

	// level 3
	if v1 < v0 {
		v0, v1 = v1, v0
	}
	if v5 < v2 {
		v2, v5 = v5, v2
	}
	if v4 < v3 {
		v3, v4 = v4, v3
	}

	// level 4
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v6 < v4 {
		v4, v6 = v6, v4
	}

	// level 5
	if v3 < v2 {
		v2, v3 = v3, v2
	}
	if v5 < v4 {
		v4, v5 = v5, v4
	}

	// level 6
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v4 < v3 {
		v3, v4 = v4, v3
	}
	if v6 < v5 {
		v5, v6 = v6, v5
	}

	s[0], s[1], s[2], s[3], s[4], s[5], s[6] = v0, v1, v2, v3, v4, v5, v6
}

// Sort8Ordered sorts s[:8] in place with a sorting-network kernel:
// depth 6, size 19, depth-optimal (proven minimum 6).
// Ordering follows <, so inputs containing NaN come out in
// unspecified order (the input multiset is always preserved).
func Sort8Ordered[T cmp.Ordered](s []T) {
	_ = s[7]
	v0, v1, v2, v3, v4, v5, v6, v7 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]

	// level 1
	if v2 < v0 {
		v0, v2 = v2, v0
	}
	if v3 < v1 {
		v1, v3 = v3, v1
	}
	if v6 < v4 {
		v4, v6 = v6, v4
	}
	if v7 < v5 {
		v5, v7 = v7, v5
	}

	// level 2
	if v4 < v0 {
		v0, v4 = v4, v0
	}
	if v5 < v1 {
		v1, v5 = v5, v1
	}
	if v6 < v2 {
		v2, v6 = v6, v2
	}
	if v7 < v3 {
		v3, v7 = v7, v3
	}

	// level 3
	if v1 < v0 {
		v0, v1 = v1, v0
	}
	if v3 < v2 {
		v2, v3 = v3, v2
	}
	if v5 < v4 {
		v4, v5 = v5, v4
	}
	if v7 < v6 {
		v6, v7 = v7, v6
	}

	// level 4
	if v4 < v2 {
		v2, v4 = v4, v2
	}
	if v5 < v3 {
		v3, v5 = v5, v3
	}

	// level 5
	if v4 < v1 {
		v1, v4 = v4, v1
	}
	if v6 < v3 {
		v3, v6 = v6, v3
	}

	// level 6
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v4 < v3 {
		v3, v4 = v4, v3
	}
	if v6 < v5 {
		v5, v6 = v6, v5
	}

	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = v0, v1, v2, v3, v4, v5, v6, v7
}

// Sort9Ordered sorts s[:9] in place with a sorting-network kernel:
// depth 7, size 25, depth-optimal (proven minimum 7).
// Ordering follows <, so inputs containing NaN come out in
// unspecified order (the input multiset is always preserved).
func Sort9Ordered[T cmp.Ordered](s []T) {
	_ = s[8]
	v0, v1, v2, v3, v4, v5, v6, v7, v8 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8]

	// level 1
	if v3 < v0 {
		v0, v3 = v3, v0
	}
	if v7 < v1 {
		v1, v7 = v7, v1
	}
	if v5 < v2 {
		v2, v5 = v5, v2
	}
	if v8 < v4 {
		v4, v8 = v8, v4
	}

	// level 2
	if v7 < v0 {
		v0, v7 = v7, v0
	}
	if v4 < v2 {
		v2, v4 = v4, v2
	}
	if v8 < v3 {
		v3, v8 = v8, v3
	}
	if v6 < v5 {
		v5, v6 = v6, v5
	}

	// level 3
	if v2 < v0 {
		v0, v2 = v2, v0
	}
	if v3 < v1 {
		v1, v3 = v3, v1
	}
	if v5 < v4 {
		v4, v5 = v5, v4
	}
	if v8 < v7 {
		v7, v8 = v8, v7
	}

	// level 4
	if v4 < v1 {
		v1, v4 = v4, v1
	}
	if v6 < v3 {
		v3, v6 = v6, v3
	}
	if v7 < v5 {
		v5, v7 = v7, v5
	}

	// level 5
	if v1 < v0 {
		v0, v1 = v1, v0
	}
	if v4 < v2 {
		v2, v4 = v4, v2
	}
	if v5 < v3 {
		v3, v5 = v5, v3
	}
	if v8 < v6 {
		v6, v8 = v8, v6
	}

	// level 6
	if v3 < v2 {
		v2, v3 = v3, v2
	}
	if v5 < v4 {
		v4, v5 = v5, v4
	}
	if v7 < v6 {
		v6, v7 = v7, v6
	}

	// level 7
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v4 < v3 {
		v3, v4 = v4, v3
	}
	if v6 < v5 {
		v5, v6 = v6, v5
	}

	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8] = v0, v1, v2, v3, v4, v5, v6, v7, v8
}

// Sort10Ordered sorts s[:10] in place with a sorting-network kernel:
// depth 7, size 31, depth-optimal (proven minimum 7).
// Ordering follows <, so inputs containing NaN come out in
// unspecified order (the input multiset is always preserved).
func Sort10Ordered[T cmp.Ordered](s []T) {
	_ = s[9]
	v0, v1, v2, v3, v4, v5, v6, v7, v8, v9 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9]

	// level 1
	if v1 < v0 {
		v0, v1 = v1, v0
	}
	if v5 < v2 {
		v2, v5 = v5, v2
	}
	if v6 < v3 {
		v3, v6 = v6, v3
	}
	if v7 < v4 {
		v4, v7 = v7, v4
	}
	if v9 < v8 {
		v8, v9 = v9, v8
	}

	// level 2
	if v6 < v0 {
		v0, v6 = v6, v0
	}
	if v8 < v1 {
		v1, v8 = v8, v1
	}
	if v4 < v2 {
		v2, v4 = v4, v2
	}
	if v9 < v3 {
		v3, v9 = v9, v3
	}
	if v7 < v5 {
		v5, v7 = v7, v5
	}

	// level 3
	if v2 < v0 {
		v0, v2 = v2, v0
	}
	if v3 < v1 {
		v1, v3 = v3, v1
	}
	if v5 < v4 {
		v4, v5 = v5, v4
	}
	if v8 < v6 {
		v6, v8 = v8, v6
	}
	if v9 < v7 {
		v7, v9 = v9, v7
	}

	// level 4
	if v1 < v0 {
		v0, v1 = v1, v0
	}
	if v7 < v2 {
		v2, v7 = v7, v2
	}
	if v5 < v3 {
		v3, v5 = v5, v3
	}
	if v6 < v4 {
		v4, v6 = v6, v4
	}
	if v9 < v8 {
		v8, v9 = v9, v8
	}

	// level 5
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v4 < v3 {
		v3, v4 = v4, v3
	}
	if v6 < v5 {
		v5, v6 = v6, v5
	}
	if v8 < v7 {
		v7, v8 = v8, v7
	}

	// level 6
	if v3 < v1 {
		v1, v3 = v3, v1
	}
	if v4 < v2 {
		v2, v4 = v4, v2
	}
	if v7 < v5 {
		v5, v7 = v7, v5
	}
	if v8 < v6 {
		v6, v8 = v8, v6
	}

	// level 7
	if v3 < v2 {
		v2, v3 = v3, v2
	}
	if v5 < v4 {
		v4, v5 = v5, v4
	}
	if v7 < v6 {
		v6, v7 = v7, v6
	}

	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9
}

// Sort11Ordered sorts s[:11] in place with a sorting-network kernel:
// depth 8, size 35, depth-optimal (proven minimum 8).
// Ordering follows <, so inputs containing NaN come out in
// unspecified order (the input multiset is always preserved).
func Sort11Ordered[T cmp.Ordered](s []T) {
	_ = s[10]
	v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10]

	// level 1
	if v9 < v0 {
		v0, v9 = v9, v0
	}
	if v6 < v1 {
		v1, v6 = v6, v1
	}
	if v4 < v2 {
		v2, v4 = v4, v2
	}
	if v7 < v3 {
		v3, v7 = v7, v3
	}
	if v8 < v5 {
		v5, v8 = v8, v5
	}

	// level 2
	if v1 < v0 {
		v0, v1 = v1, v0
	}
	if v5 < v3 {
		v3, v5 = v5, v3
	}
	if v10 < v4 {
		v4, v10 = v10, v4
	}
	if v9 < v6 {
		v6, v9 = v9, v6
	}
	if v8 < v7 {
		v7, v8 = v8, v7
	}

	// level 3
	if v3 < v1 {
		v1, v3 = v3, v1
	}
	if v5 < v2 {
		v2, v5 = v5, v2
	}
	if v7 < v4 {
		v4, v7 = v7, v4
	}
	if v10 < v8 {
		v8, v10 = v10, v8
	}

	// level 4
	if v4 < v0 {
		v0, v4 = v4, v0
	}
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v7 < v3 {
		v3, v7 = v7, v3
	}
	if v9 < v5 {
		v5, v9 = v9, v5
	}
	if v8 < v6 {
		v6, v8 = v8, v6
	}

	// level 5
	if v1 < v0 {
		v0, v1 = v1, v0
	}
	if v6 < v2 {
		v2, v6 = v6, v2
	}
	if v5 < v4 {
		v4, v5 = v5, v4
	}
	if v8 < v7 {
		v7, v8 = v8, v7
	}
	if v10 < v9 {
		v9, v10 = v10, v9
	}

	// level 6
	if v4 < v2 {
		v2, v4 = v4, v2
	}
	if v6 < v3 {
		v3, v6 = v6, v3
	}
	if v7 < v5 {
		v5, v7 = v7, v5
	}
	if v9 < v8 {
		v8, v9 = v9, v8
	}

	// level 7
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v4 < v3 {
		v3, v4 = v4, v3
	}
	if v6 < v5 {
		v5, v6 = v6, v5
	}
	if v8 < v7 {
		v7, v8 = v8, v7
	}

	// level 8
	if v3 < v2 {
		v2, v3 = v3, v2
	}
	if v5 < v4 {
		v4, v5 = v5, v4
	}
	if v7 < v6 {
		v6, v7 = v7, v6
	}

	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10
}

// Sort12Ordered sorts s[:12] in place with a sorting-network kernel:
// depth 8, size 43, depth-optimal (proven minimum 8).
// Ordering follows <, so inputs containing NaN come out in
// unspecified order (the input multiset is always preserved).
func Sort12Ordered[T cmp.Ordered](s []T) {
	_ = s[11]
	v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11]

	// level 1
	if v1 < v0 {
		v0, v1 = v1, v0
	}
	if v3 < v2 {
		v2, v3 = v3, v2
	}
	if v5 < v4 {
		v4, v5 = v5, v4
	}
	if v7 < v6 {
		v6, v7 = v7, v6
	}
	if v9 < v8 {
		v8, v9 = v9, v8
	}
	if v11 < v10 {
		v10, v11 = v11, v10
	}

	// level 2
	if v6 < v0 {
		v0, v6 = v6, v0
	}
	if v7 < v1 {
		v1, v7 = v7, v1
	}
	if v9 < v2 {
		v2, v9 = v9, v2
	}
	if v8 < v3 {
		v3, v8 = v8, v3
	}
	if v10 < v4 {
		v4, v10 = v10, v4
	}
	if v11 < v5 {
		v5, v11 = v11, v5
	}

	// level 3
	if v11 < v0 {
		v0, v11 = v11, v0
	}
	if v3 < v1 {
		v1, v3 = v3, v1
	}
	if v5 < v2 {
		v2, v5 = v5, v2
	}
	if v7 < v4 {
		v4, v7 = v7, v4
	}
	if v9 < v6 {
		v6, v9 = v9, v6
	}
	if v10 < v8 {
		v8, v10 = v10, v8
	}

	// level 4
	if v2 < v0 {
		v0, v2 = v2, v0
	}
	if v4 < v1 {
		v1, v4 = v4, v1
	}
	if v5 < v3 {
		v3, v5 = v5, v3
	}
	if v8 < v6 {
		v6, v8 = v8, v6
	}
	if v10 < v7 {
		v7, v10 = v10, v7
	}
	if v11 < v9 {
		v9, v11 = v11, v9
	}

	// level 5
	if v1 < v0 {
		v0, v1 = v1, v0
	}
	if v4 < v2 {
		v2, v4 = v4, v2
	}
	if v8 < v3 {
		v3, v8 = v8, v3
	}
	if v9 < v7 {
		v7, v9 = v9, v7
	}
	if v11 < v10 {
		v10, v11 = v11, v10
	}

	// level 6
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v6 < v3 {
		v3, v6 = v6, v3
	}
	if v7 < v4 {
		v4, v7 = v7, v4
	}
	if v8 < v5 {
		v5, v8 = v8, v5
	}
	if v10 < v9 {
		v9, v10 = v10, v9
	}

	// level 7
	if v3 < v2 {
		v2, v3 = v3, v2
	}
	if v6 < v4 {
		v4, v6 = v6, v4
	}
	if v7 < v5 {
		v5, v7 = v7, v5
	}
	if v9 < v8 {
		v8, v9 = v9, v8
	}

	// level 8
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v4 < v3 {
		v3, v4 = v4, v3
	}
	if v6 < v5 {
		v5, v6 = v6, v5
	}
	if v8 < v7 {
		v7, v8 = v8, v7
	}
	if v10 < v9 {
		v9, v10 = v10, v9
	}

	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11
}

// Sort13Ordered sorts s[:13] in place with a sorting-network kernel:
// depth 9, size 48, depth-optimal (proven minimum 9).
// Ordering follows <, so inputs containing NaN come out in
// unspecified order (the input multiset is always preserved).
func Sort13Ordered[T cmp.Ordered](s []T) {
	_ = s[12]
	v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12]

	// level 1
	if v1 < v0 {
		v0, v1 = v1, v0
	}
	if v3 < v2 {
		v2, v3 = v3, v2
	}
	if v5 < v4 {
		v4, v5 = v5, v4
	}
	if v7 < v6 {
		v6, v7 = v7, v6
	}
	if v9 < v8 {
		v8, v9 = v9, v8
	}
	if v11 < v10 {
		v10, v11 = v11, v10
	}

	// level 2
	if v2 < v0 {
		v0, v2 = v2, v0
	}
	if v3 < v1 {
		v1, v3 = v3, v1
	}
	if v6 < v4 {
		v4, v6 = v6, v4
	}
	if v7 < v5 {
		v5, v7 = v7, v5
	}
	if v10 < v8 {
		v8, v10 = v10, v8
	}
	if v11 < v9 {
		v9, v11 = v11, v9
	}

	// level 3
	if v4 < v0 {
		v0, v4 = v4, v0
	}
	if v6 < v1 {
		v1, v6 = v6, v1
	}
	if v5 < v2 {
		v2, v5 = v5, v2
	}
	if v7 < v3 {
		v3, v7 = v7, v3
	}
	if v12 < v8 {
		v8, v12 = v12, v8
	}

	// level 4
	if v8 < v0 {
		v0, v8 = v8, v0
	}
	if v9 < v1 {
		v1, v9 = v9, v1
	}
	if v10 < v2 {
		v2, v10 = v10, v2
	}
	if v11 < v3 {
		v3, v11 = v11, v3
	}
	if v12 < v4 {
		v4, v12 = v12, v4
	}

	// level 5
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v12 < v3 {
		v3, v12 = v12, v3
	}
	if v8 < v4 {
		v4, v8 = v8, v4
	}
	if v9 < v5 {
		v5, v9 = v9, v5
	}
	if v10 < v6 {
		v6, v10 = v10, v6
	}
	if v11 < v7 {
		v7, v11 = v11, v7
	}

	// level 6
	if v8 < v2 {
		v2, v8 = v8, v2
	}
	if v10 < v3 {
		v3, v10 = v10, v3
	}
	if v12 < v5 {
		v5, v12 = v12, v5
	}
	if v9 < v6 {
		v6, v9 = v9, v6
	}

	// level 7
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v8 < v3 {
		v3, v8 = v8, v3
	}
	if v6 < v5 {
		v5, v6 = v6, v5
	}
	if v12 < v7 {
		v7, v12 = v12, v7
	}
	if v10 < v9 {
		v9, v10 = v10, v9
	}

	// level 8
	if v4 < v2 {
		v2, v4 = v4, v2
	}
	if v5 < v3 {
		v3, v5 = v5, v3
	}
	if v8 < v6 {
		v6, v8 = v8, v6
	}
	if v9 < v7 {
		v7, v9 = v9, v7
	}
	if v12 < v10 {
		v10, v12 = v12, v10
	}

	// level 9
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v4 < v3 {
		v3, v4 = v4, v3
	}
	if v6 < v5 {
		v5, v6 = v6, v5
	}
	if v8 < v7 {
		v7, v8 = v8, v7
	}
	if v10 < v9 {
		v9, v10 = v10, v9
	}
	if v12 < v11 {
		v11, v12 = v12, v11
	}

	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12
}

// Sort14Ordered sorts s[:14] in place with a sorting-network kernel:
// depth 9, size 53, depth-optimal (proven minimum 9).
// Ordering follows <, so inputs containing NaN come out in
// unspecified order (the input multiset is always preserved).
func Sort14Ordered[T cmp.Ordered](s []T) {
	_ = s[13]
	v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13]

	// level 1
	if v1 < v0 {
		v0, v1 = v1, v0
	}
	if v3 < v2 {
		v2, v3 = v3, v2
	}
	if v5 < v4 {
		v4, v5 = v5, v4
	}
	if v7 < v6 {
		v6, v7 = v7, v6
	}
	if v9 < v8 {
		v8, v9 = v9, v8
	}
	if v11 < v10 {
		v10, v11 = v11, v10
	}
	if v13 < v12 {
		v12, v13 = v13, v12
	}

	// level 2
	if v2 < v0 {
		v0, v2 = v2, v0
	}
	if v3 < v1 {
		v1, v3 = v3, v1
	}
	if v6 < v4 {
		v4, v6 = v6, v4
	}
	if v7 < v5 {
		v5, v7 = v7, v5
	}
	if v10 < v8 {
		v8, v10 = v10, v8
	}
	if v11 < v9 {
		v9, v11 = v11, v9
	}

	// level 3
	if v4 < v0 {
		v0, v4 = v4, v0
	}
	if v6 < v1 {
		v1, v6 = v6, v1
	}
	if v5 < v2 {
		v2, v5 = v5, v2
	}
	if v7 < v3 {
		v3, v7 = v7, v3
	}
	if v12 < v8 {
		v8, v12 = v12, v8
	}
	if v13 < v10 {
		v10, v13 = v13, v10
	}

	// level 4
	if v8 < v0 {
		v0, v8 = v8, v0
	}
	if v9 < v1 {
		v1, v9 = v9, v1
	}
	if v10 < v2 {
		v2, v10 = v10, v2
	}
	if v11 < v3 {
		v3, v11 = v11, v3
	}
	if v12 < v4 {
		v4, v12 = v12, v4
	}
	if v13 < v5 {
		v5, v13 = v13, v5
	}

	// level 5
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v12 < v3 {
		v3, v12 = v12, v3
	}
	if v8 < v4 {
		v4, v8 = v8, v4
	}
	if v9 < v5 {
		v5, v9 = v9, v5
	}
	if v10 < v6 {
		v6, v10 = v10, v6
	}
	if v11 < v7 {
		v7, v11 = v11, v7
	}

	// level 6
	if v8 < v2 {
		v2, v8 = v8, v2
	}
	if v10 < v3 {
		v3, v10 = v10, v3
	}
	if v12 < v5 {
		v5, v12 = v12, v5
	}
	if v9 < v6 {
		v6, v9 = v9, v6
	}
	if v13 < v7 {
		v7, v13 = v13, v7
	}

	// level 7
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v8 < v3 {
		v3, v8 = v8, v3
	}
	if v6 < v5 {
		v5, v6 = v6, v5
	}
	if v12 < v7 {
		v7, v12 = v12, v7
	}
	if v10 < v9 {
		v9, v10 = v10, v9
	}

	// level 8
	if v4 < v2 {
		v2, v4 = v4, v2
	}
	if v5 < v3 {
		v3, v5 = v5, v3
	}
	if v8 < v6 {
		v6, v8 = v8, v6
	}
	if v9 < v7 {
		v7, v9 = v9, v7
	}
	if v12 < v10 {
		v10, v12 = v12, v10
	}
	if v13 < v11 {
		v11, v13 = v13, v11
	}

	// level 9
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v4 < v3 {
		v3, v4 = v4, v3
	}
	if v6 < v5 {
		v5, v6 = v6, v5
	}
	if v8 < v7 {
		v7, v8 = v8, v7
	}
	if v10 < v9 {
		v9, v10 = v10, v9
	}
	if v12 < v11 {
		v11, v12 = v12, v11
	}

	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13
}

// Sort15Ordered sorts s[:15] in place with a sorting-network kernel:
// depth 9, size 59, depth-optimal (proven minimum 9).
// Ordering follows <, so inputs containing NaN come out in
// unspecified order (the input multiset is always preserved).
func Sort15Ordered[T cmp.Ordered](s []T) {
	_ = s[14]
	v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13], s[14]

	// level 1
	if v1 < v0 {
		v0, v1 = v1, v0
	}
	if v3 < v2 {
		v2, v3 = v3, v2
	}
	if v5 < v4 {
		v4, v5 = v5, v4
	}
	if v7 < v6 {
		v6, v7 = v7, v6
	}
	if v9 < v8 {
		v8, v9 = v9, v8
	}
	if v11 < v10 {
		v10, v11 = v11, v10
	}
	if v13 < v12 {
		v12, v13 = v13, v12
	}

	// level 2
	if v2 < v0 {
		v0, v2 = v2, v0
	}
	if v3 < v1 {
		v1, v3 = v3, v1
	}
	if v6 < v4 {
		v4, v6 = v6, v4
	}
	if v7 < v5 {
		v5, v7 = v7, v5
	}
	if v10 < v8 {
		v8, v10 = v10, v8
	}
	if v11 < v9 {
		v9, v11 = v11, v9
	}
	if v14 < v12 {
		v12, v14 = v14, v12
	}

	// level 3
	if v4 < v0 {
		v0, v4 = v4, v0
	}
	if v6 < v1 {
		v1, v6 = v6, v1
	}
	if v5 < v2 {
		v2, v5 = v5, v2
	}
	if v7 < v3 {
		v3, v7 = v7, v3
	}
	if v12 < v8 {
		v8, v12 = v12, v8
	}
	if v14 < v9 {
		v9, v14 = v14, v9
	}
	if v13 < v10 {
		v10, v13 = v13, v10
	}

	// level 4
	if v8 < v0 {
		v0, v8 = v8, v0
	}
	if v9 < v1 {
		v1, v9 = v9, v1
	}
	if v10 < v2 {
		v2, v10 = v10, v2
	}
	if v11 < v3 {
		v3, v11 = v11, v3
	}
	if v12 < v4 {
		v4, v12 = v12, v4
	}
	if v13 < v5 {
		v5, v13 = v13, v5
	}
	if v14 < v6 {
		v6, v14 = v14, v6
	}

	// level 5
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v12 < v3 {
		v3, v12 = v12, v3
	}
	if v8 < v4 {
		v4, v8 = v8, v4
	}
	if v9 < v5 {
		v5, v9 = v9, v5
	}
	if v10 < v6 {
		v6, v10 = v10, v6
	}
	if v11 < v7 {
		v7, v11 = v11, v7
	}
	if v14 < v13 {
		v13, v14 = v14, v13
	}

	// level 6
	if v8 < v2 {
		v2, v8 = v8, v2
	}
	if v10 < v3 {
		v3, v10 = v10, v3
	}
	if v12 < v5 {
		v5, v12 = v12, v5
	}
	if v9 < v6 {
		v6, v9 = v9, v6
	}
	if v13 < v7 {
		v7, v13 = v13, v7
	}

	// level 7
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v8 < v3 {
		v3, v8 = v8, v3
	}
	if v6 < v5 {
		v5, v6 = v6, v5
	}
	if v12 < v7 {
		v7, v12 = v12, v7
	}
	if v10 < v9 {
		v9, v10 = v10, v9
	}
	if v14 < v13 {
		v13, v14 = v14, v13
	}

	// level 8
	if v4 < v2 {
		v2, v4 = v4, v2
	}
	if v5 < v3 {
		v3, v5 = v5, v3
	}
	if v8 < v6 {
		v6, v8 = v8, v6
	}
	if v9 < v7 {
		v7, v9 = v9, v7
	}
	if v12 < v10 {
		v10, v12 = v12, v10
	}
	if v13 < v11 {
		v11, v13 = v13, v11
	}

	// level 9
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v4 < v3 {
		v3, v4 = v4, v3
	}
	if v6 < v5 {
		v5, v6 = v6, v5
	}
	if v8 < v7 {
		v7, v8 = v8, v7
	}
	if v10 < v9 {
		v9, v10 = v10, v9
	}
	if v12 < v11 {
		v11, v12 = v12, v11
	}
	if v14 < v13 {
		v13, v14 = v14, v13
	}

	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13], s[14] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14
}

// Sort16Ordered sorts s[:16] in place with a sorting-network kernel:
// depth 9, size 65, depth-optimal (proven minimum 9).
// Ordering follows <, so inputs containing NaN come out in
// unspecified order (the input multiset is always preserved).
func Sort16Ordered[T cmp.Ordered](s []T) {
	_ = s[15]
	v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14, v15 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13], s[14], s[15]

	// level 1
	if v1 < v0 {
		v0, v1 = v1, v0
	}
	if v3 < v2 {
		v2, v3 = v3, v2
	}
	if v5 < v4 {
		v4, v5 = v5, v4
	}
	if v7 < v6 {
		v6, v7 = v7, v6
	}
	if v9 < v8 {
		v8, v9 = v9, v8
	}
	if v11 < v10 {
		v10, v11 = v11, v10
	}
	if v13 < v12 {
		v12, v13 = v13, v12
	}
	if v15 < v14 {
		v14, v15 = v15, v14
	}

	// level 2
	if v2 < v0 {
		v0, v2 = v2, v0
	}
	if v3 < v1 {
		v1, v3 = v3, v1
	}
	if v6 < v4 {
		v4, v6 = v6, v4
	}
	if v7 < v5 {
		v5, v7 = v7, v5
	}
	if v10 < v8 {
		v8, v10 = v10, v8
	}
	if v11 < v9 {
		v9, v11 = v11, v9
	}
	if v14 < v12 {
		v12, v14 = v14, v12
	}
	if v15 < v13 {
		v13, v15 = v15, v13
	}

	// level 3
	if v4 < v0 {
		v0, v4 = v4, v0
	}
	if v6 < v1 {
		v1, v6 = v6, v1
	}
	if v5 < v2 {
		v2, v5 = v5, v2
	}
	if v7 < v3 {
		v3, v7 = v7, v3
	}
	if v12 < v8 {
		v8, v12 = v12, v8
	}
	if v14 < v9 {
		v9, v14 = v14, v9
	}
	if v13 < v10 {
		v10, v13 = v13, v10
	}
	if v15 < v11 {
		v11, v15 = v15, v11
	}

	// level 4
	if v8 < v0 {
		v0, v8 = v8, v0
	}
	if v9 < v1 {
		v1, v9 = v9, v1
	}
	if v10 < v2 {
		v2, v10 = v10, v2
	}
	if v11 < v3 {
		v3, v11 = v11, v3
	}
	if v12 < v4 {
		v4, v12 = v12, v4
	}
	if v13 < v5 {
		v5, v13 = v13, v5
	}
	if v14 < v6 {
		v6, v14 = v14, v6
	}
	if v15 < v7 {
		v7, v15 = v15, v7
	}

	// level 5
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v12 < v3 {
		v3, v12 = v12, v3
	}
	if v8 < v4 {
		v4, v8 = v8, v4
	}
	if v9 < v5 {
		v5, v9 = v9, v5
	}
	if v10 < v6 {
		v6, v10 = v10, v6
	}
	if v11 < v7 {
		v7, v11 = v11, v7
	}
	if v14 < v13 {
		v13, v14 = v14, v13
	}

	// level 6
	if v8 < v2 {
		v2, v8 = v8, v2
	}
	if v10 < v3 {
		v3, v10 = v10, v3
	}
	if v12 < v5 {
		v5, v12 = v12, v5
	}
	if v9 < v6 {
		v6, v9 = v9, v6
	}
	if v13 < v7 {
		v7, v13 = v13, v7
	}

	// level 7
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v8 < v3 {
		v3, v8 = v8, v3
	}
	if v6 < v5 {
		v5, v6 = v6, v5
	}
	if v12 < v7 {
		v7, v12 = v12, v7
	}
	if v10 < v9 {
		v9, v10 = v10, v9
	}
	if v14 < v13 {
		v13, v14 = v14, v13
	}

	// level 8
	if v1 < v0 {
		v0, v1 = v1, v0
	}
	if v4 < v2 {
		v2, v4 = v4, v2
	}
	if v5 < v3 {
		v3, v5 = v5, v3
	}
	if v8 < v6 {
		v6, v8 = v8, v6
	}
	if v9 < v7 {
		v7, v9 = v9, v7
	}
	if v12 < v10 {
		v10, v12 = v12, v10
	}
	if v13 < v11 {
		v11, v13 = v13, v11
	}
	if v15 < v14 {
		v14, v15 = v15, v14
	}

	// level 9
	if v2 < v1 {
		v1, v2 = v2, v1
	}
	if v4 < v3 {
		v3, v4 = v4, v3
	}
	if v6 < v5 {
		v5, v6 = v6, v5
	}
	if v8 < v7 {
		v7, v8 = v8, v7
	}
	if v10 < v9 {
		v9, v10 = v10, v9
	}
	if v12 < v11 {
		v11, v12 = v12, v11
	}
	if v14 < v13 {
		v13, v14 = v14, v13
	}

	s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13], s[14], s[15] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14, v15
}
