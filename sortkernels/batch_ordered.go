// Code generated by "go run ./cmd/netgen -preset sortkernels"; DO NOT EDIT.

package sortkernels

import "cmp"

// batchCols2Ordered sorts each of the m rows of a 2-column
// column-major batch: column w is data[w*m:(w+1)*m], row r is the
// 2 values {data[w*m+r]}. Depth 1, size 1, depth-optimal (proven minimum 1).
func batchCols2Ordered[T cmp.Ordered](data []T, m int) {
	c0 := data[0*m : 1*m]
	c1 := data[1*m : 2*m]
	for r := range c0 {
		v0, v1 := c0[r], c1[r]

		// level 1
		v0, v1 = min(v0, v1), max(v0, v1)

		c0[r], c1[r] = v0, v1
	}
}

// batchFlat2Ordered sorts each of the m contiguous width-2 rows of a
// row-major batch in place: row r is data[r*2:(r+1)*2].
func batchFlat2Ordered[T cmp.Ordered](data []T, m int) {
	for r := 0; r < m; r++ {
		s := data[r*2 : r*2+2 : r*2+2]
		v0, v1 := s[0], s[1]

		// level 1
		v0, v1 = min(v0, v1), max(v0, v1)

		s[0], s[1] = v0, v1
	}
}

// batchCols3Ordered sorts each of the m rows of a 3-column
// column-major batch: column w is data[w*m:(w+1)*m], row r is the
// 3 values {data[w*m+r]}. Depth 3, size 3, depth-optimal (proven minimum 3).
func batchCols3Ordered[T cmp.Ordered](data []T, m int) {
	c0 := data[0*m : 1*m]
	c1 := data[1*m : 2*m]
	c2 := data[2*m : 3*m]
	for r := range c0 {
		v0, v1, v2 := c0[r], c1[r], c2[r]

		// level 1
		v0, v2 = min(v0, v2), max(v0, v2)

		// level 2
		v0, v1 = min(v0, v1), max(v0, v1)

		// level 3
		v1, v2 = min(v1, v2), max(v1, v2)

		c0[r], c1[r], c2[r] = v0, v1, v2
	}
}

// batchFlat3Ordered sorts each of the m contiguous width-3 rows of a
// row-major batch in place: row r is data[r*3:(r+1)*3].
func batchFlat3Ordered[T cmp.Ordered](data []T, m int) {
	for r := 0; r < m; r++ {
		s := data[r*3 : r*3+3 : r*3+3]
		v0, v1, v2 := s[0], s[1], s[2]

		// level 1
		v0, v2 = min(v0, v2), max(v0, v2)

		// level 2
		v0, v1 = min(v0, v1), max(v0, v1)

		// level 3
		v1, v2 = min(v1, v2), max(v1, v2)

		s[0], s[1], s[2] = v0, v1, v2
	}
}

// batchCols4Ordered sorts each of the m rows of a 4-column
// column-major batch: column w is data[w*m:(w+1)*m], row r is the
// 4 values {data[w*m+r]}. Depth 3, size 5, depth-optimal (proven minimum 3).
func batchCols4Ordered[T cmp.Ordered](data []T, m int) {
	c0 := data[0*m : 1*m]
	c1 := data[1*m : 2*m]
	c2 := data[2*m : 3*m]
	c3 := data[3*m : 4*m]
	for r := range c0 {
		v0, v1, v2, v3 := c0[r], c1[r], c2[r], c3[r]

		// level 1
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v3 = min(v1, v3), max(v1, v3)

		// level 2
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v3 = min(v2, v3), max(v2, v3)

		// level 3
		v1, v2 = min(v1, v2), max(v1, v2)

		c0[r], c1[r], c2[r], c3[r] = v0, v1, v2, v3
	}
}

// batchFlat4Ordered sorts each of the m contiguous width-4 rows of a
// row-major batch in place: row r is data[r*4:(r+1)*4].
func batchFlat4Ordered[T cmp.Ordered](data []T, m int) {
	for r := 0; r < m; r++ {
		s := data[r*4 : r*4+4 : r*4+4]
		v0, v1, v2, v3 := s[0], s[1], s[2], s[3]

		// level 1
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v3 = min(v1, v3), max(v1, v3)

		// level 2
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v3 = min(v2, v3), max(v2, v3)

		// level 3
		v1, v2 = min(v1, v2), max(v1, v2)

		s[0], s[1], s[2], s[3] = v0, v1, v2, v3
	}
}

// batchCols5Ordered sorts each of the m rows of a 5-column
// column-major batch: column w is data[w*m:(w+1)*m], row r is the
// 5 values {data[w*m+r]}. Depth 5, size 9, depth-optimal (proven minimum 5).
func batchCols5Ordered[T cmp.Ordered](data []T, m int) {
	c0 := data[0*m : 1*m]
	c1 := data[1*m : 2*m]
	c2 := data[2*m : 3*m]
	c3 := data[3*m : 4*m]
	c4 := data[4*m : 5*m]
	for r := range c0 {
		v0, v1, v2, v3, v4 := c0[r], c1[r], c2[r], c3[r], c4[r]

		// level 1
		v0, v3 = min(v0, v3), max(v0, v3)
		v1, v4 = min(v1, v4), max(v1, v4)

		// level 2
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v3 = min(v1, v3), max(v1, v3)

		// level 3
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v4 = min(v2, v4), max(v2, v4)

		// level 4
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)

		// level 5
		v2, v3 = min(v2, v3), max(v2, v3)

		c0[r], c1[r], c2[r], c3[r], c4[r] = v0, v1, v2, v3, v4
	}
}

// batchFlat5Ordered sorts each of the m contiguous width-5 rows of a
// row-major batch in place: row r is data[r*5:(r+1)*5].
func batchFlat5Ordered[T cmp.Ordered](data []T, m int) {
	for r := 0; r < m; r++ {
		s := data[r*5 : r*5+5 : r*5+5]
		v0, v1, v2, v3, v4 := s[0], s[1], s[2], s[3], s[4]

		// level 1
		v0, v3 = min(v0, v3), max(v0, v3)
		v1, v4 = min(v1, v4), max(v1, v4)

		// level 2
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v3 = min(v1, v3), max(v1, v3)

		// level 3
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v4 = min(v2, v4), max(v2, v4)

		// level 4
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)

		// level 5
		v2, v3 = min(v2, v3), max(v2, v3)

		s[0], s[1], s[2], s[3], s[4] = v0, v1, v2, v3, v4
	}
}

// batchCols6Ordered sorts each of the m rows of a 6-column
// column-major batch: column w is data[w*m:(w+1)*m], row r is the
// 6 values {data[w*m+r]}. Depth 5, size 12, depth-optimal (proven minimum 5).
func batchCols6Ordered[T cmp.Ordered](data []T, m int) {
	c0 := data[0*m : 1*m]
	c1 := data[1*m : 2*m]
	c2 := data[2*m : 3*m]
	c3 := data[3*m : 4*m]
	c4 := data[4*m : 5*m]
	c5 := data[5*m : 6*m]
	for r := range c0 {
		v0, v1, v2, v3, v4, v5 := c0[r], c1[r], c2[r], c3[r], c4[r], c5[r]

		// level 1
		v0, v5 = min(v0, v5), max(v0, v5)
		v1, v3 = min(v1, v3), max(v1, v3)
		v2, v4 = min(v2, v4), max(v2, v4)

		// level 2
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)

		// level 3
		v0, v3 = min(v0, v3), max(v0, v3)
		v2, v5 = min(v2, v5), max(v2, v5)

		// level 4
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)

		// level 5
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)

		c0[r], c1[r], c2[r], c3[r], c4[r], c5[r] = v0, v1, v2, v3, v4, v5
	}
}

// batchFlat6Ordered sorts each of the m contiguous width-6 rows of a
// row-major batch in place: row r is data[r*6:(r+1)*6].
func batchFlat6Ordered[T cmp.Ordered](data []T, m int) {
	for r := 0; r < m; r++ {
		s := data[r*6 : r*6+6 : r*6+6]
		v0, v1, v2, v3, v4, v5 := s[0], s[1], s[2], s[3], s[4], s[5]

		// level 1
		v0, v5 = min(v0, v5), max(v0, v5)
		v1, v3 = min(v1, v3), max(v1, v3)
		v2, v4 = min(v2, v4), max(v2, v4)

		// level 2
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)

		// level 3
		v0, v3 = min(v0, v3), max(v0, v3)
		v2, v5 = min(v2, v5), max(v2, v5)

		// level 4
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)

		// level 5
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)

		s[0], s[1], s[2], s[3], s[4], s[5] = v0, v1, v2, v3, v4, v5
	}
}

// batchCols7Ordered sorts each of the m rows of a 7-column
// column-major batch: column w is data[w*m:(w+1)*m], row r is the
// 7 values {data[w*m+r]}. Depth 6, size 16, depth-optimal (proven minimum 6).
func batchCols7Ordered[T cmp.Ordered](data []T, m int) {
	c0 := data[0*m : 1*m]
	c1 := data[1*m : 2*m]
	c2 := data[2*m : 3*m]
	c3 := data[3*m : 4*m]
	c4 := data[4*m : 5*m]
	c5 := data[5*m : 6*m]
	c6 := data[6*m : 7*m]
	for r := range c0 {
		v0, v1, v2, v3, v4, v5, v6 := c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r]

		// level 1
		v0, v6 = min(v0, v6), max(v0, v6)
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)

		// level 2
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v4 = min(v1, v4), max(v1, v4)
		v3, v6 = min(v3, v6), max(v3, v6)

		// level 3
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v5 = min(v2, v5), max(v2, v5)
		v3, v4 = min(v3, v4), max(v3, v4)

		// level 4
		v1, v2 = min(v1, v2), max(v1, v2)
		v4, v6 = min(v4, v6), max(v4, v6)

		// level 5
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)

		// level 6
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)

		c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r] = v0, v1, v2, v3, v4, v5, v6
	}
}

// batchFlat7Ordered sorts each of the m contiguous width-7 rows of a
// row-major batch in place: row r is data[r*7:(r+1)*7].
func batchFlat7Ordered[T cmp.Ordered](data []T, m int) {
	for r := 0; r < m; r++ {
		s := data[r*7 : r*7+7 : r*7+7]
		v0, v1, v2, v3, v4, v5, v6 := s[0], s[1], s[2], s[3], s[4], s[5], s[6]

		// level 1
		v0, v6 = min(v0, v6), max(v0, v6)
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)

		// level 2
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v4 = min(v1, v4), max(v1, v4)
		v3, v6 = min(v3, v6), max(v3, v6)

		// level 3
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v5 = min(v2, v5), max(v2, v5)
		v3, v4 = min(v3, v4), max(v3, v4)

		// level 4
		v1, v2 = min(v1, v2), max(v1, v2)
		v4, v6 = min(v4, v6), max(v4, v6)

		// level 5
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)

		// level 6
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)

		s[0], s[1], s[2], s[3], s[4], s[5], s[6] = v0, v1, v2, v3, v4, v5, v6
	}
}

// batchCols8Ordered sorts each of the m rows of a 8-column
// column-major batch: column w is data[w*m:(w+1)*m], row r is the
// 8 values {data[w*m+r]}. Depth 6, size 19, depth-optimal (proven minimum 6).
func batchCols8Ordered[T cmp.Ordered](data []T, m int) {
	c0 := data[0*m : 1*m]
	c1 := data[1*m : 2*m]
	c2 := data[2*m : 3*m]
	c3 := data[3*m : 4*m]
	c4 := data[4*m : 5*m]
	c5 := data[5*m : 6*m]
	c6 := data[6*m : 7*m]
	c7 := data[7*m : 8*m]
	for r := range c0 {
		v0, v1, v2, v3, v4, v5, v6, v7 := c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r], c7[r]

		// level 1
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v3 = min(v1, v3), max(v1, v3)
		v4, v6 = min(v4, v6), max(v4, v6)
		v5, v7 = min(v5, v7), max(v5, v7)

		// level 2
		v0, v4 = min(v0, v4), max(v0, v4)
		v1, v5 = min(v1, v5), max(v1, v5)
		v2, v6 = min(v2, v6), max(v2, v6)
		v3, v7 = min(v3, v7), max(v3, v7)

		// level 3
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v7 = min(v6, v7), max(v6, v7)

		// level 4
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v5 = min(v3, v5), max(v3, v5)

		// level 5
		v1, v4 = min(v1, v4), max(v1, v4)
		v3, v6 = min(v3, v6), max(v3, v6)

		// level 6
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)

		c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r], c7[r] = v0, v1, v2, v3, v4, v5, v6, v7
	}
}

// batchFlat8Ordered sorts each of the m contiguous width-8 rows of a
// row-major batch in place: row r is data[r*8:(r+1)*8].
func batchFlat8Ordered[T cmp.Ordered](data []T, m int) {
	for r := 0; r < m; r++ {
		s := data[r*8 : r*8+8 : r*8+8]
		v0, v1, v2, v3, v4, v5, v6, v7 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]

		// level 1
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v3 = min(v1, v3), max(v1, v3)
		v4, v6 = min(v4, v6), max(v4, v6)
		v5, v7 = min(v5, v7), max(v5, v7)

		// level 2
		v0, v4 = min(v0, v4), max(v0, v4)
		v1, v5 = min(v1, v5), max(v1, v5)
		v2, v6 = min(v2, v6), max(v2, v6)
		v3, v7 = min(v3, v7), max(v3, v7)

		// level 3
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v7 = min(v6, v7), max(v6, v7)

		// level 4
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v5 = min(v3, v5), max(v3, v5)

		// level 5
		v1, v4 = min(v1, v4), max(v1, v4)
		v3, v6 = min(v3, v6), max(v3, v6)

		// level 6
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)

		s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7] = v0, v1, v2, v3, v4, v5, v6, v7
	}
}

// batchCols9Ordered sorts each of the m rows of a 9-column
// column-major batch: column w is data[w*m:(w+1)*m], row r is the
// 9 values {data[w*m+r]}. Depth 7, size 25, depth-optimal (proven minimum 7).
func batchCols9Ordered[T cmp.Ordered](data []T, m int) {
	c0 := data[0*m : 1*m]
	c1 := data[1*m : 2*m]
	c2 := data[2*m : 3*m]
	c3 := data[3*m : 4*m]
	c4 := data[4*m : 5*m]
	c5 := data[5*m : 6*m]
	c6 := data[6*m : 7*m]
	c7 := data[7*m : 8*m]
	c8 := data[8*m : 9*m]
	for r := range c0 {
		v0, v1, v2, v3, v4, v5, v6, v7, v8 := c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r], c7[r], c8[r]

		// level 1
		v0, v3 = min(v0, v3), max(v0, v3)
		v1, v7 = min(v1, v7), max(v1, v7)
		v2, v5 = min(v2, v5), max(v2, v5)
		v4, v8 = min(v4, v8), max(v4, v8)

		// level 2
		v0, v7 = min(v0, v7), max(v0, v7)
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v8 = min(v3, v8), max(v3, v8)
		v5, v6 = min(v5, v6), max(v5, v6)

		// level 3
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v3 = min(v1, v3), max(v1, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v7, v8 = min(v7, v8), max(v7, v8)

		// level 4
		v1, v4 = min(v1, v4), max(v1, v4)
		v3, v6 = min(v3, v6), max(v3, v6)
		v5, v7 = min(v5, v7), max(v5, v7)

		// level 5
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v5 = min(v3, v5), max(v3, v5)
		v6, v8 = min(v6, v8), max(v6, v8)

		// level 6
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v7 = min(v6, v7), max(v6, v7)

		// level 7
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)

		c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r], c7[r], c8[r] = v0, v1, v2, v3, v4, v5, v6, v7, v8
	}
}

// batchFlat9Ordered sorts each of the m contiguous width-9 rows of a
// row-major batch in place: row r is data[r*9:(r+1)*9].
func batchFlat9Ordered[T cmp.Ordered](data []T, m int) {
	for r := 0; r < m; r++ {
		s := data[r*9 : r*9+9 : r*9+9]
		v0, v1, v2, v3, v4, v5, v6, v7, v8 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8]

		// level 1
		v0, v3 = min(v0, v3), max(v0, v3)
		v1, v7 = min(v1, v7), max(v1, v7)
		v2, v5 = min(v2, v5), max(v2, v5)
		v4, v8 = min(v4, v8), max(v4, v8)

		// level 2
		v0, v7 = min(v0, v7), max(v0, v7)
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v8 = min(v3, v8), max(v3, v8)
		v5, v6 = min(v5, v6), max(v5, v6)

		// level 3
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v3 = min(v1, v3), max(v1, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v7, v8 = min(v7, v8), max(v7, v8)

		// level 4
		v1, v4 = min(v1, v4), max(v1, v4)
		v3, v6 = min(v3, v6), max(v3, v6)
		v5, v7 = min(v5, v7), max(v5, v7)

		// level 5
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v5 = min(v3, v5), max(v3, v5)
		v6, v8 = min(v6, v8), max(v6, v8)

		// level 6
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v7 = min(v6, v7), max(v6, v7)

		// level 7
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)

		s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8] = v0, v1, v2, v3, v4, v5, v6, v7, v8
	}
}

// batchCols10Ordered sorts each of the m rows of a 10-column
// column-major batch: column w is data[w*m:(w+1)*m], row r is the
// 10 values {data[w*m+r]}. Depth 7, size 31, depth-optimal (proven minimum 7).
func batchCols10Ordered[T cmp.Ordered](data []T, m int) {
	c0 := data[0*m : 1*m]
	c1 := data[1*m : 2*m]
	c2 := data[2*m : 3*m]
	c3 := data[3*m : 4*m]
	c4 := data[4*m : 5*m]
	c5 := data[5*m : 6*m]
	c6 := data[6*m : 7*m]
	c7 := data[7*m : 8*m]
	c8 := data[8*m : 9*m]
	c9 := data[9*m : 10*m]
	for r := range c0 {
		v0, v1, v2, v3, v4, v5, v6, v7, v8, v9 := c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r], c7[r], c8[r], c9[r]

		// level 1
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v5 = min(v2, v5), max(v2, v5)
		v3, v6 = min(v3, v6), max(v3, v6)
		v4, v7 = min(v4, v7), max(v4, v7)
		v8, v9 = min(v8, v9), max(v8, v9)

		// level 2
		v0, v6 = min(v0, v6), max(v0, v6)
		v1, v8 = min(v1, v8), max(v1, v8)
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v9 = min(v3, v9), max(v3, v9)
		v5, v7 = min(v5, v7), max(v5, v7)

		// level 3
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v3 = min(v1, v3), max(v1, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v8 = min(v6, v8), max(v6, v8)
		v7, v9 = min(v7, v9), max(v7, v9)

		// level 4
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v7 = min(v2, v7), max(v2, v7)
		v3, v5 = min(v3, v5), max(v3, v5)
		v4, v6 = min(v4, v6), max(v4, v6)
		v8, v9 = min(v8, v9), max(v8, v9)

		// level 5
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v8 = min(v7, v8), max(v7, v8)

		// level 6
		v1, v3 = min(v1, v3), max(v1, v3)
		v2, v4 = min(v2, v4), max(v2, v4)
		v5, v7 = min(v5, v7), max(v5, v7)
		v6, v8 = min(v6, v8), max(v6, v8)

		// level 7
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v7 = min(v6, v7), max(v6, v7)

		c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r], c7[r], c8[r], c9[r] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9
	}
}

// batchFlat10Ordered sorts each of the m contiguous width-10 rows of a
// row-major batch in place: row r is data[r*10:(r+1)*10].
func batchFlat10Ordered[T cmp.Ordered](data []T, m int) {
	for r := 0; r < m; r++ {
		s := data[r*10 : r*10+10 : r*10+10]
		v0, v1, v2, v3, v4, v5, v6, v7, v8, v9 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9]

		// level 1
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v5 = min(v2, v5), max(v2, v5)
		v3, v6 = min(v3, v6), max(v3, v6)
		v4, v7 = min(v4, v7), max(v4, v7)
		v8, v9 = min(v8, v9), max(v8, v9)

		// level 2
		v0, v6 = min(v0, v6), max(v0, v6)
		v1, v8 = min(v1, v8), max(v1, v8)
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v9 = min(v3, v9), max(v3, v9)
		v5, v7 = min(v5, v7), max(v5, v7)

		// level 3
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v3 = min(v1, v3), max(v1, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v8 = min(v6, v8), max(v6, v8)
		v7, v9 = min(v7, v9), max(v7, v9)

		// level 4
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v7 = min(v2, v7), max(v2, v7)
		v3, v5 = min(v3, v5), max(v3, v5)
		v4, v6 = min(v4, v6), max(v4, v6)
		v8, v9 = min(v8, v9), max(v8, v9)

		// level 5
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v8 = min(v7, v8), max(v7, v8)

		// level 6
		v1, v3 = min(v1, v3), max(v1, v3)
		v2, v4 = min(v2, v4), max(v2, v4)
		v5, v7 = min(v5, v7), max(v5, v7)
		v6, v8 = min(v6, v8), max(v6, v8)

		// level 7
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v7 = min(v6, v7), max(v6, v7)

		s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9
	}
}

// batchCols11Ordered sorts each of the m rows of a 11-column
// column-major batch: column w is data[w*m:(w+1)*m], row r is the
// 11 values {data[w*m+r]}. Depth 8, size 35, depth-optimal (proven minimum 8).
func batchCols11Ordered[T cmp.Ordered](data []T, m int) {
	c0 := data[0*m : 1*m]
	c1 := data[1*m : 2*m]
	c2 := data[2*m : 3*m]
	c3 := data[3*m : 4*m]
	c4 := data[4*m : 5*m]
	c5 := data[5*m : 6*m]
	c6 := data[6*m : 7*m]
	c7 := data[7*m : 8*m]
	c8 := data[8*m : 9*m]
	c9 := data[9*m : 10*m]
	c10 := data[10*m : 11*m]
	for r := range c0 {
		v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10 := c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r], c7[r], c8[r], c9[r], c10[r]

		// level 1
		v0, v9 = min(v0, v9), max(v0, v9)
		v1, v6 = min(v1, v6), max(v1, v6)
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v7 = min(v3, v7), max(v3, v7)
		v5, v8 = min(v5, v8), max(v5, v8)

		// level 2
		v0, v1 = min(v0, v1), max(v0, v1)
		v3, v5 = min(v3, v5), max(v3, v5)
		v4, v10 = min(v4, v10), max(v4, v10)
		v6, v9 = min(v6, v9), max(v6, v9)
		v7, v8 = min(v7, v8), max(v7, v8)

		// level 3
		v1, v3 = min(v1, v3), max(v1, v3)
		v2, v5 = min(v2, v5), max(v2, v5)
		v4, v7 = min(v4, v7), max(v4, v7)
		v8, v10 = min(v8, v10), max(v8, v10)

		// level 4
		v0, v4 = min(v0, v4), max(v0, v4)
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v7 = min(v3, v7), max(v3, v7)
		v5, v9 = min(v5, v9), max(v5, v9)
		v6, v8 = min(v6, v8), max(v6, v8)

		// level 5
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v6 = min(v2, v6), max(v2, v6)
		v4, v5 = min(v4, v5), max(v4, v5)
		v7, v8 = min(v7, v8), max(v7, v8)
		v9, v10 = min(v9, v10), max(v9, v10)

		// level 6
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v6 = min(v3, v6), max(v3, v6)
		v5, v7 = min(v5, v7), max(v5, v7)
		v8, v9 = min(v8, v9), max(v8, v9)

		// level 7
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v8 = min(v7, v8), max(v7, v8)

		// level 8
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v7 = min(v6, v7), max(v6, v7)

		c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r], c7[r], c8[r], c9[r], c10[r] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10
	}
}

// batchFlat11Ordered sorts each of the m contiguous width-11 rows of a
// row-major batch in place: row r is data[r*11:(r+1)*11].
func batchFlat11Ordered[T cmp.Ordered](data []T, m int) {
	for r := 0; r < m; r++ {
		s := data[r*11 : r*11+11 : r*11+11]
		v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10]

		// level 1
		v0, v9 = min(v0, v9), max(v0, v9)
		v1, v6 = min(v1, v6), max(v1, v6)
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v7 = min(v3, v7), max(v3, v7)
		v5, v8 = min(v5, v8), max(v5, v8)

		// level 2
		v0, v1 = min(v0, v1), max(v0, v1)
		v3, v5 = min(v3, v5), max(v3, v5)
		v4, v10 = min(v4, v10), max(v4, v10)
		v6, v9 = min(v6, v9), max(v6, v9)
		v7, v8 = min(v7, v8), max(v7, v8)

		// level 3
		v1, v3 = min(v1, v3), max(v1, v3)
		v2, v5 = min(v2, v5), max(v2, v5)
		v4, v7 = min(v4, v7), max(v4, v7)
		v8, v10 = min(v8, v10), max(v8, v10)

		// level 4
		v0, v4 = min(v0, v4), max(v0, v4)
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v7 = min(v3, v7), max(v3, v7)
		v5, v9 = min(v5, v9), max(v5, v9)
		v6, v8 = min(v6, v8), max(v6, v8)

		// level 5
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v6 = min(v2, v6), max(v2, v6)
		v4, v5 = min(v4, v5), max(v4, v5)
		v7, v8 = min(v7, v8), max(v7, v8)
		v9, v10 = min(v9, v10), max(v9, v10)

		// level 6
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v6 = min(v3, v6), max(v3, v6)
		v5, v7 = min(v5, v7), max(v5, v7)
		v8, v9 = min(v8, v9), max(v8, v9)

		// level 7
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v8 = min(v7, v8), max(v7, v8)

		// level 8
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v7 = min(v6, v7), max(v6, v7)

		s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10
	}
}

// batchCols12Ordered sorts each of the m rows of a 12-column
// column-major batch: column w is data[w*m:(w+1)*m], row r is the
// 12 values {data[w*m+r]}. Depth 8, size 43, depth-optimal (proven minimum 8).
func batchCols12Ordered[T cmp.Ordered](data []T, m int) {
	c0 := data[0*m : 1*m]
	c1 := data[1*m : 2*m]
	c2 := data[2*m : 3*m]
	c3 := data[3*m : 4*m]
	c4 := data[4*m : 5*m]
	c5 := data[5*m : 6*m]
	c6 := data[6*m : 7*m]
	c7 := data[7*m : 8*m]
	c8 := data[8*m : 9*m]
	c9 := data[9*m : 10*m]
	c10 := data[10*m : 11*m]
	c11 := data[11*m : 12*m]
	for r := range c0 {
		v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11 := c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r], c7[r], c8[r], c9[r], c10[r], c11[r]

		// level 1
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v7 = min(v6, v7), max(v6, v7)
		v8, v9 = min(v8, v9), max(v8, v9)
		v10, v11 = min(v10, v11), max(v10, v11)

		// level 2
		v0, v6 = min(v0, v6), max(v0, v6)
		v1, v7 = min(v1, v7), max(v1, v7)
		v2, v9 = min(v2, v9), max(v2, v9)
		v3, v8 = min(v3, v8), max(v3, v8)
		v4, v10 = min(v4, v10), max(v4, v10)
		v5, v11 = min(v5, v11), max(v5, v11)

		// level 3
		v0, v11 = min(v0, v11), max(v0, v11)
		v1, v3 = min(v1, v3), max(v1, v3)
		v2, v5 = min(v2, v5), max(v2, v5)
		v4, v7 = min(v4, v7), max(v4, v7)
		v6, v9 = min(v6, v9), max(v6, v9)
		v8, v10 = min(v8, v10), max(v8, v10)

		// level 4
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v4 = min(v1, v4), max(v1, v4)
		v3, v5 = min(v3, v5), max(v3, v5)
		v6, v8 = min(v6, v8), max(v6, v8)
		v7, v10 = min(v7, v10), max(v7, v10)
		v9, v11 = min(v9, v11), max(v9, v11)

		// level 5
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v8 = min(v3, v8), max(v3, v8)
		v7, v9 = min(v7, v9), max(v7, v9)
		v10, v11 = min(v10, v11), max(v10, v11)

		// level 6
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v6 = min(v3, v6), max(v3, v6)
		v4, v7 = min(v4, v7), max(v4, v7)
		v5, v8 = min(v5, v8), max(v5, v8)
		v9, v10 = min(v9, v10), max(v9, v10)

		// level 7
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v6 = min(v4, v6), max(v4, v6)
		v5, v7 = min(v5, v7), max(v5, v7)
		v8, v9 = min(v8, v9), max(v8, v9)

		// level 8
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v8 = min(v7, v8), max(v7, v8)
		v9, v10 = min(v9, v10), max(v9, v10)

		c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r], c7[r], c8[r], c9[r], c10[r], c11[r] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11
	}
}

// batchFlat12Ordered sorts each of the m contiguous width-12 rows of a
// row-major batch in place: row r is data[r*12:(r+1)*12].
func batchFlat12Ordered[T cmp.Ordered](data []T, m int) {
	for r := 0; r < m; r++ {
		s := data[r*12 : r*12+12 : r*12+12]
		v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11]

		// level 1
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v7 = min(v6, v7), max(v6, v7)
		v8, v9 = min(v8, v9), max(v8, v9)
		v10, v11 = min(v10, v11), max(v10, v11)

		// level 2
		v0, v6 = min(v0, v6), max(v0, v6)
		v1, v7 = min(v1, v7), max(v1, v7)
		v2, v9 = min(v2, v9), max(v2, v9)
		v3, v8 = min(v3, v8), max(v3, v8)
		v4, v10 = min(v4, v10), max(v4, v10)
		v5, v11 = min(v5, v11), max(v5, v11)

		// level 3
		v0, v11 = min(v0, v11), max(v0, v11)
		v1, v3 = min(v1, v3), max(v1, v3)
		v2, v5 = min(v2, v5), max(v2, v5)
		v4, v7 = min(v4, v7), max(v4, v7)
		v6, v9 = min(v6, v9), max(v6, v9)
		v8, v10 = min(v8, v10), max(v8, v10)

		// level 4
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v4 = min(v1, v4), max(v1, v4)
		v3, v5 = min(v3, v5), max(v3, v5)
		v6, v8 = min(v6, v8), max(v6, v8)
		v7, v10 = min(v7, v10), max(v7, v10)
		v9, v11 = min(v9, v11), max(v9, v11)

		// level 5
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v8 = min(v3, v8), max(v3, v8)
		v7, v9 = min(v7, v9), max(v7, v9)
		v10, v11 = min(v10, v11), max(v10, v11)

		// level 6
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v6 = min(v3, v6), max(v3, v6)
		v4, v7 = min(v4, v7), max(v4, v7)
		v5, v8 = min(v5, v8), max(v5, v8)
		v9, v10 = min(v9, v10), max(v9, v10)

		// level 7
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v6 = min(v4, v6), max(v4, v6)
		v5, v7 = min(v5, v7), max(v5, v7)
		v8, v9 = min(v8, v9), max(v8, v9)

		// level 8
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v8 = min(v7, v8), max(v7, v8)
		v9, v10 = min(v9, v10), max(v9, v10)

		s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11
	}
}

// batchCols13Ordered sorts each of the m rows of a 13-column
// column-major batch: column w is data[w*m:(w+1)*m], row r is the
// 13 values {data[w*m+r]}. Depth 9, size 48, depth-optimal (proven minimum 9).
func batchCols13Ordered[T cmp.Ordered](data []T, m int) {
	c0 := data[0*m : 1*m]
	c1 := data[1*m : 2*m]
	c2 := data[2*m : 3*m]
	c3 := data[3*m : 4*m]
	c4 := data[4*m : 5*m]
	c5 := data[5*m : 6*m]
	c6 := data[6*m : 7*m]
	c7 := data[7*m : 8*m]
	c8 := data[8*m : 9*m]
	c9 := data[9*m : 10*m]
	c10 := data[10*m : 11*m]
	c11 := data[11*m : 12*m]
	c12 := data[12*m : 13*m]
	for r := range c0 {
		v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12 := c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r], c7[r], c8[r], c9[r], c10[r], c11[r], c12[r]

		// level 1
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v7 = min(v6, v7), max(v6, v7)
		v8, v9 = min(v8, v9), max(v8, v9)
		v10, v11 = min(v10, v11), max(v10, v11)

		// level 2
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v3 = min(v1, v3), max(v1, v3)
		v4, v6 = min(v4, v6), max(v4, v6)
		v5, v7 = min(v5, v7), max(v5, v7)
		v8, v10 = min(v8, v10), max(v8, v10)
		v9, v11 = min(v9, v11), max(v9, v11)

		// level 3
		v0, v4 = min(v0, v4), max(v0, v4)
		v1, v6 = min(v1, v6), max(v1, v6)
		v2, v5 = min(v2, v5), max(v2, v5)
		v3, v7 = min(v3, v7), max(v3, v7)
		v8, v12 = min(v8, v12), max(v8, v12)

		// level 4
		v0, v8 = min(v0, v8), max(v0, v8)
		v1, v9 = min(v1, v9), max(v1, v9)
		v2, v10 = min(v2, v10), max(v2, v10)
		v3, v11 = min(v3, v11), max(v3, v11)
		v4, v12 = min(v4, v12), max(v4, v12)

		// level 5
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v12 = min(v3, v12), max(v3, v12)
		v4, v8 = min(v4, v8), max(v4, v8)
		v5, v9 = min(v5, v9), max(v5, v9)
		v6, v10 = min(v6, v10), max(v6, v10)
		v7, v11 = min(v7, v11), max(v7, v11)

		// level 6
		v2, v8 = min(v2, v8), max(v2, v8)
		v3, v10 = min(v3, v10), max(v3, v10)
		v5, v12 = min(v5, v12), max(v5, v12)
		v6, v9 = min(v6, v9), max(v6, v9)

		// level 7
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v8 = min(v3, v8), max(v3, v8)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v12 = min(v7, v12), max(v7, v12)
		v9, v10 = min(v9, v10), max(v9, v10)

		// level 8
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v5 = min(v3, v5), max(v3, v5)
		v6, v8 = min(v6, v8), max(v6, v8)
		v7, v9 = min(v7, v9), max(v7, v9)
		v10, v12 = min(v10, v12), max(v10, v12)

		// level 9
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v8 = min(v7, v8), max(v7, v8)
		v9, v10 = min(v9, v10), max(v9, v10)
		v11, v12 = min(v11, v12), max(v11, v12)

		c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r], c7[r], c8[r], c9[r], c10[r], c11[r], c12[r] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12
	}
}

// batchFlat13Ordered sorts each of the m contiguous width-13 rows of a
// row-major batch in place: row r is data[r*13:(r+1)*13].
func batchFlat13Ordered[T cmp.Ordered](data []T, m int) {
	for r := 0; r < m; r++ {
		s := data[r*13 : r*13+13 : r*13+13]
		v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12]

		// level 1
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v7 = min(v6, v7), max(v6, v7)
		v8, v9 = min(v8, v9), max(v8, v9)
		v10, v11 = min(v10, v11), max(v10, v11)

		// level 2
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v3 = min(v1, v3), max(v1, v3)
		v4, v6 = min(v4, v6), max(v4, v6)
		v5, v7 = min(v5, v7), max(v5, v7)
		v8, v10 = min(v8, v10), max(v8, v10)
		v9, v11 = min(v9, v11), max(v9, v11)

		// level 3
		v0, v4 = min(v0, v4), max(v0, v4)
		v1, v6 = min(v1, v6), max(v1, v6)
		v2, v5 = min(v2, v5), max(v2, v5)
		v3, v7 = min(v3, v7), max(v3, v7)
		v8, v12 = min(v8, v12), max(v8, v12)

		// level 4
		v0, v8 = min(v0, v8), max(v0, v8)
		v1, v9 = min(v1, v9), max(v1, v9)
		v2, v10 = min(v2, v10), max(v2, v10)
		v3, v11 = min(v3, v11), max(v3, v11)
		v4, v12 = min(v4, v12), max(v4, v12)

		// level 5
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v12 = min(v3, v12), max(v3, v12)
		v4, v8 = min(v4, v8), max(v4, v8)
		v5, v9 = min(v5, v9), max(v5, v9)
		v6, v10 = min(v6, v10), max(v6, v10)
		v7, v11 = min(v7, v11), max(v7, v11)

		// level 6
		v2, v8 = min(v2, v8), max(v2, v8)
		v3, v10 = min(v3, v10), max(v3, v10)
		v5, v12 = min(v5, v12), max(v5, v12)
		v6, v9 = min(v6, v9), max(v6, v9)

		// level 7
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v8 = min(v3, v8), max(v3, v8)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v12 = min(v7, v12), max(v7, v12)
		v9, v10 = min(v9, v10), max(v9, v10)

		// level 8
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v5 = min(v3, v5), max(v3, v5)
		v6, v8 = min(v6, v8), max(v6, v8)
		v7, v9 = min(v7, v9), max(v7, v9)
		v10, v12 = min(v10, v12), max(v10, v12)

		// level 9
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v8 = min(v7, v8), max(v7, v8)
		v9, v10 = min(v9, v10), max(v9, v10)
		v11, v12 = min(v11, v12), max(v11, v12)

		s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12
	}
}

// batchCols14Ordered sorts each of the m rows of a 14-column
// column-major batch: column w is data[w*m:(w+1)*m], row r is the
// 14 values {data[w*m+r]}. Depth 9, size 53, depth-optimal (proven minimum 9).
func batchCols14Ordered[T cmp.Ordered](data []T, m int) {
	c0 := data[0*m : 1*m]
	c1 := data[1*m : 2*m]
	c2 := data[2*m : 3*m]
	c3 := data[3*m : 4*m]
	c4 := data[4*m : 5*m]
	c5 := data[5*m : 6*m]
	c6 := data[6*m : 7*m]
	c7 := data[7*m : 8*m]
	c8 := data[8*m : 9*m]
	c9 := data[9*m : 10*m]
	c10 := data[10*m : 11*m]
	c11 := data[11*m : 12*m]
	c12 := data[12*m : 13*m]
	c13 := data[13*m : 14*m]
	for r := range c0 {
		v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13 := c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r], c7[r], c8[r], c9[r], c10[r], c11[r], c12[r], c13[r]

		// level 1
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v7 = min(v6, v7), max(v6, v7)
		v8, v9 = min(v8, v9), max(v8, v9)
		v10, v11 = min(v10, v11), max(v10, v11)
		v12, v13 = min(v12, v13), max(v12, v13)

		// level 2
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v3 = min(v1, v3), max(v1, v3)
		v4, v6 = min(v4, v6), max(v4, v6)
		v5, v7 = min(v5, v7), max(v5, v7)
		v8, v10 = min(v8, v10), max(v8, v10)
		v9, v11 = min(v9, v11), max(v9, v11)

		// level 3
		v0, v4 = min(v0, v4), max(v0, v4)
		v1, v6 = min(v1, v6), max(v1, v6)
		v2, v5 = min(v2, v5), max(v2, v5)
		v3, v7 = min(v3, v7), max(v3, v7)
		v8, v12 = min(v8, v12), max(v8, v12)
		v10, v13 = min(v10, v13), max(v10, v13)

		// level 4
		v0, v8 = min(v0, v8), max(v0, v8)
		v1, v9 = min(v1, v9), max(v1, v9)
		v2, v10 = min(v2, v10), max(v2, v10)
		v3, v11 = min(v3, v11), max(v3, v11)
		v4, v12 = min(v4, v12), max(v4, v12)
		v5, v13 = min(v5, v13), max(v5, v13)

		// level 5
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v12 = min(v3, v12), max(v3, v12)
		v4, v8 = min(v4, v8), max(v4, v8)
		v5, v9 = min(v5, v9), max(v5, v9)
		v6, v10 = min(v6, v10), max(v6, v10)
		v7, v11 = min(v7, v11), max(v7, v11)

		// level 6
		v2, v8 = min(v2, v8), max(v2, v8)
		v3, v10 = min(v3, v10), max(v3, v10)
		v5, v12 = min(v5, v12), max(v5, v12)
		v6, v9 = min(v6, v9), max(v6, v9)
		v7, v13 = min(v7, v13), max(v7, v13)

		// level 7
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v8 = min(v3, v8), max(v3, v8)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v12 = min(v7, v12), max(v7, v12)
		v9, v10 = min(v9, v10), max(v9, v10)

		// level 8
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v5 = min(v3, v5), max(v3, v5)
		v6, v8 = min(v6, v8), max(v6, v8)
		v7, v9 = min(v7, v9), max(v7, v9)
		v10, v12 = min(v10, v12), max(v10, v12)
		v11, v13 = min(v11, v13), max(v11, v13)

		// level 9
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v8 = min(v7, v8), max(v7, v8)
		v9, v10 = min(v9, v10), max(v9, v10)
		v11, v12 = min(v11, v12), max(v11, v12)

		c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r], c7[r], c8[r], c9[r], c10[r], c11[r], c12[r], c13[r] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13
	}
}

// batchFlat14Ordered sorts each of the m contiguous width-14 rows of a
// row-major batch in place: row r is data[r*14:(r+1)*14].
func batchFlat14Ordered[T cmp.Ordered](data []T, m int) {
	for r := 0; r < m; r++ {
		s := data[r*14 : r*14+14 : r*14+14]
		v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13]

		// level 1
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v7 = min(v6, v7), max(v6, v7)
		v8, v9 = min(v8, v9), max(v8, v9)
		v10, v11 = min(v10, v11), max(v10, v11)
		v12, v13 = min(v12, v13), max(v12, v13)

		// level 2
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v3 = min(v1, v3), max(v1, v3)
		v4, v6 = min(v4, v6), max(v4, v6)
		v5, v7 = min(v5, v7), max(v5, v7)
		v8, v10 = min(v8, v10), max(v8, v10)
		v9, v11 = min(v9, v11), max(v9, v11)

		// level 3
		v0, v4 = min(v0, v4), max(v0, v4)
		v1, v6 = min(v1, v6), max(v1, v6)
		v2, v5 = min(v2, v5), max(v2, v5)
		v3, v7 = min(v3, v7), max(v3, v7)
		v8, v12 = min(v8, v12), max(v8, v12)
		v10, v13 = min(v10, v13), max(v10, v13)

		// level 4
		v0, v8 = min(v0, v8), max(v0, v8)
		v1, v9 = min(v1, v9), max(v1, v9)
		v2, v10 = min(v2, v10), max(v2, v10)
		v3, v11 = min(v3, v11), max(v3, v11)
		v4, v12 = min(v4, v12), max(v4, v12)
		v5, v13 = min(v5, v13), max(v5, v13)

		// level 5
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v12 = min(v3, v12), max(v3, v12)
		v4, v8 = min(v4, v8), max(v4, v8)
		v5, v9 = min(v5, v9), max(v5, v9)
		v6, v10 = min(v6, v10), max(v6, v10)
		v7, v11 = min(v7, v11), max(v7, v11)

		// level 6
		v2, v8 = min(v2, v8), max(v2, v8)
		v3, v10 = min(v3, v10), max(v3, v10)
		v5, v12 = min(v5, v12), max(v5, v12)
		v6, v9 = min(v6, v9), max(v6, v9)
		v7, v13 = min(v7, v13), max(v7, v13)

		// level 7
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v8 = min(v3, v8), max(v3, v8)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v12 = min(v7, v12), max(v7, v12)
		v9, v10 = min(v9, v10), max(v9, v10)

		// level 8
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v5 = min(v3, v5), max(v3, v5)
		v6, v8 = min(v6, v8), max(v6, v8)
		v7, v9 = min(v7, v9), max(v7, v9)
		v10, v12 = min(v10, v12), max(v10, v12)
		v11, v13 = min(v11, v13), max(v11, v13)

		// level 9
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v8 = min(v7, v8), max(v7, v8)
		v9, v10 = min(v9, v10), max(v9, v10)
		v11, v12 = min(v11, v12), max(v11, v12)

		s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13
	}
}

// batchCols15Ordered sorts each of the m rows of a 15-column
// column-major batch: column w is data[w*m:(w+1)*m], row r is the
// 15 values {data[w*m+r]}. Depth 9, size 59, depth-optimal (proven minimum 9).
func batchCols15Ordered[T cmp.Ordered](data []T, m int) {
	c0 := data[0*m : 1*m]
	c1 := data[1*m : 2*m]
	c2 := data[2*m : 3*m]
	c3 := data[3*m : 4*m]
	c4 := data[4*m : 5*m]
	c5 := data[5*m : 6*m]
	c6 := data[6*m : 7*m]
	c7 := data[7*m : 8*m]
	c8 := data[8*m : 9*m]
	c9 := data[9*m : 10*m]
	c10 := data[10*m : 11*m]
	c11 := data[11*m : 12*m]
	c12 := data[12*m : 13*m]
	c13 := data[13*m : 14*m]
	c14 := data[14*m : 15*m]
	for r := range c0 {
		v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14 := c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r], c7[r], c8[r], c9[r], c10[r], c11[r], c12[r], c13[r], c14[r]

		// level 1
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v7 = min(v6, v7), max(v6, v7)
		v8, v9 = min(v8, v9), max(v8, v9)
		v10, v11 = min(v10, v11), max(v10, v11)
		v12, v13 = min(v12, v13), max(v12, v13)

		// level 2
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v3 = min(v1, v3), max(v1, v3)
		v4, v6 = min(v4, v6), max(v4, v6)
		v5, v7 = min(v5, v7), max(v5, v7)
		v8, v10 = min(v8, v10), max(v8, v10)
		v9, v11 = min(v9, v11), max(v9, v11)
		v12, v14 = min(v12, v14), max(v12, v14)

		// level 3
		v0, v4 = min(v0, v4), max(v0, v4)
		v1, v6 = min(v1, v6), max(v1, v6)
		v2, v5 = min(v2, v5), max(v2, v5)
		v3, v7 = min(v3, v7), max(v3, v7)
		v8, v12 = min(v8, v12), max(v8, v12)
		v9, v14 = min(v9, v14), max(v9, v14)
		v10, v13 = min(v10, v13), max(v10, v13)

		// level 4
		v0, v8 = min(v0, v8), max(v0, v8)
		v1, v9 = min(v1, v9), max(v1, v9)
		v2, v10 = min(v2, v10), max(v2, v10)
		v3, v11 = min(v3, v11), max(v3, v11)
		v4, v12 = min(v4, v12), max(v4, v12)
		v5, v13 = min(v5, v13), max(v5, v13)
		v6, v14 = min(v6, v14), max(v6, v14)

		// level 5
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v12 = min(v3, v12), max(v3, v12)
		v4, v8 = min(v4, v8), max(v4, v8)
		v5, v9 = min(v5, v9), max(v5, v9)
		v6, v10 = min(v6, v10), max(v6, v10)
		v7, v11 = min(v7, v11), max(v7, v11)
		v13, v14 = min(v13, v14), max(v13, v14)

		// level 6
		v2, v8 = min(v2, v8), max(v2, v8)
		v3, v10 = min(v3, v10), max(v3, v10)
		v5, v12 = min(v5, v12), max(v5, v12)
		v6, v9 = min(v6, v9), max(v6, v9)
		v7, v13 = min(v7, v13), max(v7, v13)

		// level 7
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v8 = min(v3, v8), max(v3, v8)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v12 = min(v7, v12), max(v7, v12)
		v9, v10 = min(v9, v10), max(v9, v10)
		v13, v14 = min(v13, v14), max(v13, v14)

		// level 8
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v5 = min(v3, v5), max(v3, v5)
		v6, v8 = min(v6, v8), max(v6, v8)
		v7, v9 = min(v7, v9), max(v7, v9)
		v10, v12 = min(v10, v12), max(v10, v12)
		v11, v13 = min(v11, v13), max(v11, v13)

		// level 9
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v8 = min(v7, v8), max(v7, v8)
		v9, v10 = min(v9, v10), max(v9, v10)
		v11, v12 = min(v11, v12), max(v11, v12)
		v13, v14 = min(v13, v14), max(v13, v14)

		c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r], c7[r], c8[r], c9[r], c10[r], c11[r], c12[r], c13[r], c14[r] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14
	}
}

// batchFlat15Ordered sorts each of the m contiguous width-15 rows of a
// row-major batch in place: row r is data[r*15:(r+1)*15].
func batchFlat15Ordered[T cmp.Ordered](data []T, m int) {
	for r := 0; r < m; r++ {
		s := data[r*15 : r*15+15 : r*15+15]
		v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13], s[14]

		// level 1
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v7 = min(v6, v7), max(v6, v7)
		v8, v9 = min(v8, v9), max(v8, v9)
		v10, v11 = min(v10, v11), max(v10, v11)
		v12, v13 = min(v12, v13), max(v12, v13)

		// level 2
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v3 = min(v1, v3), max(v1, v3)
		v4, v6 = min(v4, v6), max(v4, v6)
		v5, v7 = min(v5, v7), max(v5, v7)
		v8, v10 = min(v8, v10), max(v8, v10)
		v9, v11 = min(v9, v11), max(v9, v11)
		v12, v14 = min(v12, v14), max(v12, v14)

		// level 3
		v0, v4 = min(v0, v4), max(v0, v4)
		v1, v6 = min(v1, v6), max(v1, v6)
		v2, v5 = min(v2, v5), max(v2, v5)
		v3, v7 = min(v3, v7), max(v3, v7)
		v8, v12 = min(v8, v12), max(v8, v12)
		v9, v14 = min(v9, v14), max(v9, v14)
		v10, v13 = min(v10, v13), max(v10, v13)

		// level 4
		v0, v8 = min(v0, v8), max(v0, v8)
		v1, v9 = min(v1, v9), max(v1, v9)
		v2, v10 = min(v2, v10), max(v2, v10)
		v3, v11 = min(v3, v11), max(v3, v11)
		v4, v12 = min(v4, v12), max(v4, v12)
		v5, v13 = min(v5, v13), max(v5, v13)
		v6, v14 = min(v6, v14), max(v6, v14)

		// level 5
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v12 = min(v3, v12), max(v3, v12)
		v4, v8 = min(v4, v8), max(v4, v8)
		v5, v9 = min(v5, v9), max(v5, v9)
		v6, v10 = min(v6, v10), max(v6, v10)
		v7, v11 = min(v7, v11), max(v7, v11)
		v13, v14 = min(v13, v14), max(v13, v14)

		// level 6
		v2, v8 = min(v2, v8), max(v2, v8)
		v3, v10 = min(v3, v10), max(v3, v10)
		v5, v12 = min(v5, v12), max(v5, v12)
		v6, v9 = min(v6, v9), max(v6, v9)
		v7, v13 = min(v7, v13), max(v7, v13)

		// level 7
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v8 = min(v3, v8), max(v3, v8)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v12 = min(v7, v12), max(v7, v12)
		v9, v10 = min(v9, v10), max(v9, v10)
		v13, v14 = min(v13, v14), max(v13, v14)

		// level 8
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v5 = min(v3, v5), max(v3, v5)
		v6, v8 = min(v6, v8), max(v6, v8)
		v7, v9 = min(v7, v9), max(v7, v9)
		v10, v12 = min(v10, v12), max(v10, v12)
		v11, v13 = min(v11, v13), max(v11, v13)

		// level 9
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v8 = min(v7, v8), max(v7, v8)
		v9, v10 = min(v9, v10), max(v9, v10)
		v11, v12 = min(v11, v12), max(v11, v12)
		v13, v14 = min(v13, v14), max(v13, v14)

		s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13], s[14] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14
	}
}

// batchCols16Ordered sorts each of the m rows of a 16-column
// column-major batch: column w is data[w*m:(w+1)*m], row r is the
// 16 values {data[w*m+r]}. Depth 9, size 65, depth-optimal (proven minimum 9).
func batchCols16Ordered[T cmp.Ordered](data []T, m int) {
	c0 := data[0*m : 1*m]
	c1 := data[1*m : 2*m]
	c2 := data[2*m : 3*m]
	c3 := data[3*m : 4*m]
	c4 := data[4*m : 5*m]
	c5 := data[5*m : 6*m]
	c6 := data[6*m : 7*m]
	c7 := data[7*m : 8*m]
	c8 := data[8*m : 9*m]
	c9 := data[9*m : 10*m]
	c10 := data[10*m : 11*m]
	c11 := data[11*m : 12*m]
	c12 := data[12*m : 13*m]
	c13 := data[13*m : 14*m]
	c14 := data[14*m : 15*m]
	c15 := data[15*m : 16*m]
	for r := range c0 {
		v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14, v15 := c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r], c7[r], c8[r], c9[r], c10[r], c11[r], c12[r], c13[r], c14[r], c15[r]

		// level 1
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v7 = min(v6, v7), max(v6, v7)
		v8, v9 = min(v8, v9), max(v8, v9)
		v10, v11 = min(v10, v11), max(v10, v11)
		v12, v13 = min(v12, v13), max(v12, v13)
		v14, v15 = min(v14, v15), max(v14, v15)

		// level 2
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v3 = min(v1, v3), max(v1, v3)
		v4, v6 = min(v4, v6), max(v4, v6)
		v5, v7 = min(v5, v7), max(v5, v7)
		v8, v10 = min(v8, v10), max(v8, v10)
		v9, v11 = min(v9, v11), max(v9, v11)
		v12, v14 = min(v12, v14), max(v12, v14)
		v13, v15 = min(v13, v15), max(v13, v15)

		// level 3
		v0, v4 = min(v0, v4), max(v0, v4)
		v1, v6 = min(v1, v6), max(v1, v6)
		v2, v5 = min(v2, v5), max(v2, v5)
		v3, v7 = min(v3, v7), max(v3, v7)
		v8, v12 = min(v8, v12), max(v8, v12)
		v9, v14 = min(v9, v14), max(v9, v14)
		v10, v13 = min(v10, v13), max(v10, v13)
		v11, v15 = min(v11, v15), max(v11, v15)

		// level 4
		v0, v8 = min(v0, v8), max(v0, v8)
		v1, v9 = min(v1, v9), max(v1, v9)
		v2, v10 = min(v2, v10), max(v2, v10)
		v3, v11 = min(v3, v11), max(v3, v11)
		v4, v12 = min(v4, v12), max(v4, v12)
		v5, v13 = min(v5, v13), max(v5, v13)
		v6, v14 = min(v6, v14), max(v6, v14)
		v7, v15 = min(v7, v15), max(v7, v15)

		// level 5
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v12 = min(v3, v12), max(v3, v12)
		v4, v8 = min(v4, v8), max(v4, v8)
		v5, v9 = min(v5, v9), max(v5, v9)
		v6, v10 = min(v6, v10), max(v6, v10)
		v7, v11 = min(v7, v11), max(v7, v11)
		v13, v14 = min(v13, v14), max(v13, v14)

		// level 6
		v2, v8 = min(v2, v8), max(v2, v8)
		v3, v10 = min(v3, v10), max(v3, v10)
		v5, v12 = min(v5, v12), max(v5, v12)
		v6, v9 = min(v6, v9), max(v6, v9)
		v7, v13 = min(v7, v13), max(v7, v13)

		// level 7
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v8 = min(v3, v8), max(v3, v8)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v12 = min(v7, v12), max(v7, v12)
		v9, v10 = min(v9, v10), max(v9, v10)
		v13, v14 = min(v13, v14), max(v13, v14)

		// level 8
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v5 = min(v3, v5), max(v3, v5)
		v6, v8 = min(v6, v8), max(v6, v8)
		v7, v9 = min(v7, v9), max(v7, v9)
		v10, v12 = min(v10, v12), max(v10, v12)
		v11, v13 = min(v11, v13), max(v11, v13)
		v14, v15 = min(v14, v15), max(v14, v15)

		// level 9
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v8 = min(v7, v8), max(v7, v8)
		v9, v10 = min(v9, v10), max(v9, v10)
		v11, v12 = min(v11, v12), max(v11, v12)
		v13, v14 = min(v13, v14), max(v13, v14)

		c0[r], c1[r], c2[r], c3[r], c4[r], c5[r], c6[r], c7[r], c8[r], c9[r], c10[r], c11[r], c12[r], c13[r], c14[r], c15[r] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14, v15
	}
}

// batchFlat16Ordered sorts each of the m contiguous width-16 rows of a
// row-major batch in place: row r is data[r*16:(r+1)*16].
func batchFlat16Ordered[T cmp.Ordered](data []T, m int) {
	for r := 0; r < m; r++ {
		s := data[r*16 : r*16+16 : r*16+16]
		v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14, v15 := s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13], s[14], s[15]

		// level 1
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v3 = min(v2, v3), max(v2, v3)
		v4, v5 = min(v4, v5), max(v4, v5)
		v6, v7 = min(v6, v7), max(v6, v7)
		v8, v9 = min(v8, v9), max(v8, v9)
		v10, v11 = min(v10, v11), max(v10, v11)
		v12, v13 = min(v12, v13), max(v12, v13)
		v14, v15 = min(v14, v15), max(v14, v15)

		// level 2
		v0, v2 = min(v0, v2), max(v0, v2)
		v1, v3 = min(v1, v3), max(v1, v3)
		v4, v6 = min(v4, v6), max(v4, v6)
		v5, v7 = min(v5, v7), max(v5, v7)
		v8, v10 = min(v8, v10), max(v8, v10)
		v9, v11 = min(v9, v11), max(v9, v11)
		v12, v14 = min(v12, v14), max(v12, v14)
		v13, v15 = min(v13, v15), max(v13, v15)

		// level 3
		v0, v4 = min(v0, v4), max(v0, v4)
		v1, v6 = min(v1, v6), max(v1, v6)
		v2, v5 = min(v2, v5), max(v2, v5)
		v3, v7 = min(v3, v7), max(v3, v7)
		v8, v12 = min(v8, v12), max(v8, v12)
		v9, v14 = min(v9, v14), max(v9, v14)
		v10, v13 = min(v10, v13), max(v10, v13)
		v11, v15 = min(v11, v15), max(v11, v15)

		// level 4
		v0, v8 = min(v0, v8), max(v0, v8)
		v1, v9 = min(v1, v9), max(v1, v9)
		v2, v10 = min(v2, v10), max(v2, v10)
		v3, v11 = min(v3, v11), max(v3, v11)
		v4, v12 = min(v4, v12), max(v4, v12)
		v5, v13 = min(v5, v13), max(v5, v13)
		v6, v14 = min(v6, v14), max(v6, v14)
		v7, v15 = min(v7, v15), max(v7, v15)

		// level 5
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v12 = min(v3, v12), max(v3, v12)
		v4, v8 = min(v4, v8), max(v4, v8)
		v5, v9 = min(v5, v9), max(v5, v9)
		v6, v10 = min(v6, v10), max(v6, v10)
		v7, v11 = min(v7, v11), max(v7, v11)
		v13, v14 = min(v13, v14), max(v13, v14)

		// level 6
		v2, v8 = min(v2, v8), max(v2, v8)
		v3, v10 = min(v3, v10), max(v3, v10)
		v5, v12 = min(v5, v12), max(v5, v12)
		v6, v9 = min(v6, v9), max(v6, v9)
		v7, v13 = min(v7, v13), max(v7, v13)

		// level 7
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v8 = min(v3, v8), max(v3, v8)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v12 = min(v7, v12), max(v7, v12)
		v9, v10 = min(v9, v10), max(v9, v10)
		v13, v14 = min(v13, v14), max(v13, v14)

		// level 8
		v0, v1 = min(v0, v1), max(v0, v1)
		v2, v4 = min(v2, v4), max(v2, v4)
		v3, v5 = min(v3, v5), max(v3, v5)
		v6, v8 = min(v6, v8), max(v6, v8)
		v7, v9 = min(v7, v9), max(v7, v9)
		v10, v12 = min(v10, v12), max(v10, v12)
		v11, v13 = min(v11, v13), max(v11, v13)
		v14, v15 = min(v14, v15), max(v14, v15)

		// level 9
		v1, v2 = min(v1, v2), max(v1, v2)
		v3, v4 = min(v3, v4), max(v3, v4)
		v5, v6 = min(v5, v6), max(v5, v6)
		v7, v8 = min(v7, v8), max(v7, v8)
		v9, v10 = min(v9, v10), max(v9, v10)
		v11, v12 = min(v11, v12), max(v11, v12)
		v13, v14 = min(v13, v14), max(v13, v14)

		s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7], s[8], s[9], s[10], s[11], s[12], s[13], s[14], s[15] = v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14, v15
	}
}
