package shufflenet

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"shufflenet/sortkernels"
)

// eachBatchImpl runs fn once per available batch implementation (pure
// Go always; AVX-512 when this CPU has it), pinning the SIMD switch
// for the duration.
func eachBatchImpl(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	impls := []struct {
		name string
		simd bool
	}{{"go", false}, {"simd", true}}
	for _, impl := range impls {
		if impl.simd && !sortkernels.BatchSIMDAvailable() {
			t.Run(impl.name, func(t *testing.T) { t.Skip("no AVX-512 on this CPU") })
			continue
		}
		t.Run(impl.name, func(t *testing.T) {
			prev := sortkernels.SetBatchSIMD(impl.simd)
			defer sortkernels.SetBatchSIMD(prev)
			fn(t)
		})
	}
}

// TestBatchKernelsSortAllZeroOneInputs is the exhaustive 0-1
// verification of every committed batch kernel: for each width n, one
// batch holding all 2^n bit rows, sorted in a single call, for both
// layouts and every implementation, at the three element types with
// AVX-512 kernels and at int32, which only the generic Go kernels
// serve. By the 0-1 principle a width-n kernel that sorts all 2^n such
// rows sorts everything.
func TestBatchKernelsSortAllZeroOneInputs(t *testing.T) {
	eachBatchImpl(t, func(t *testing.T) {
		for _, n := range sortkernels.BatchWidths() {
			rows := 1 << n
			bit := func(r, w int) int { return r >> w & 1 }
			checkRow := func(layout string, r int, got func(w int) int) {
				ones := bits.OnesCount(uint(r))
				for w := 0; w < n; w++ {
					want := 0
					if w >= n-ones {
						want = 1
					}
					if got(w) != want {
						t.Fatalf("n=%d %s: mask %#x: slot %d = %d, want %d", n, layout, r, w, got(w), want)
					}
				}
			}

			// Column-major: element (row r, slot w) at data[w*rows+r].
			cols := make([]int, n*rows)
			colsU := make([]uint64, n*rows)
			colsF := make([]float64, n*rows)
			cols32 := make([]int32, n*rows)
			for r := 0; r < rows; r++ {
				for w := 0; w < n; w++ {
					b := bit(r, w)
					i := w*rows + r
					cols[i], colsU[i], colsF[i], cols32[i] = b, uint64(b), float64(b), int32(b)
				}
			}
			for name, ok := range map[string]bool{
				"int":     sortkernels.Batch(cols, rows),
				"uint64":  sortkernels.Batch(colsU, rows),
				"float64": sortkernels.Batch(colsF, rows),
				"int32":   sortkernels.Batch(cols32, rows),
			} {
				if !ok {
					t.Fatalf("n=%d: Batch %s kernel missing", n, name)
				}
			}
			for r := 0; r < rows; r++ {
				checkRow("cols/int", r, func(w int) int { return cols[w*rows+r] })
				checkRow("cols/uint64", r, func(w int) int { return int(colsU[w*rows+r]) })
				checkRow("cols/float64", r, func(w int) int { return int(colsF[w*rows+r]) })
				checkRow("cols/int32", r, func(w int) int { return int(cols32[w*rows+r]) })
			}

			// Row-major: element (row r, slot w) at data[r*n+w].
			flat := make([]int, n*rows)
			flatU := make([]uint64, n*rows)
			flatF := make([]float64, n*rows)
			flat32 := make([]int32, n*rows)
			for r := 0; r < rows; r++ {
				for w := 0; w < n; w++ {
					b := bit(r, w)
					i := r*n + w
					flat[i], flatU[i], flatF[i], flat32[i] = b, uint64(b), float64(b), int32(b)
				}
			}
			for name, ok := range map[string]bool{
				"int":     sortkernels.BatchFlat(flat, n),
				"uint64":  sortkernels.BatchFlat(flatU, n),
				"float64": sortkernels.BatchFlat(flatF, n),
				"int32":   sortkernels.BatchFlat(flat32, n),
			} {
				if !ok {
					t.Fatalf("n=%d: BatchFlat %s kernel missing", n, name)
				}
			}
			for r := 0; r < rows; r++ {
				checkRow("flat/int", r, func(w int) int { return flat[r*n+w] })
				checkRow("flat/uint64", r, func(w int) int { return int(flatU[r*n+w]) })
				checkRow("flat/float64", r, func(w int) int { return int(flatF[r*n+w]) })
				checkRow("flat/int32", r, func(w int) int { return int(flat32[r*n+w]) })
			}
		}
	})
}

// batchRowCounts exercises full 8-row groups, sub-group batches, and
// every tail residue of the SIMD kernels.
var batchRowCounts = []int{1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 63, 64, 100}

// TestBatchKernelsMatchSlicesSort differentially checks the batch
// kernels against slices.Sort on random rows, over every width, tail
// shape, layout and implementation.
func TestBatchKernelsMatchSlicesSort(t *testing.T) {
	eachBatchImpl(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for _, n := range sortkernels.BatchWidths() {
			for _, m := range batchRowCounts {
				vals := make([]uint64, n*m)
				for i := range vals {
					// Small range forces duplicate-heavy rows.
					if rng.Intn(2) == 0 {
						vals[i] = uint64(rng.Intn(4))
					} else {
						vals[i] = rng.Uint64()
					}
				}
				cols := slices.Clone(vals)
				colsI := make([]int, len(vals))
				colsF := make([]float64, len(vals))
				for i, v := range vals {
					colsI[i] = int(v)
					colsF[i] = float64(v >> 12) // 52 bits: exact, NaN-free
				}
				// Per-type expectations: signed, unsigned and float
				// orderings differ, so each domain sorts its own rows.
				want := make([][]uint64, m)
				wantI := make([][]int, m)
				wantF := make([][]float64, m)
				for r := 0; r < m; r++ {
					want[r] = make([]uint64, n)
					wantI[r] = make([]int, n)
					wantF[r] = make([]float64, n)
					for w := 0; w < n; w++ {
						want[r][w] = vals[w*m+r]
						wantI[r][w] = colsI[w*m+r]
						wantF[r][w] = colsF[w*m+r]
					}
					slices.Sort(want[r])
					slices.Sort(wantI[r])
					slices.Sort(wantF[r])
				}
				if !sortkernels.Batch(cols, m) || !sortkernels.Batch(colsI, m) || !sortkernels.Batch(colsF, m) {
					t.Fatalf("n=%d m=%d: batch kernel missing", n, m)
				}
				flat := make([]uint64, len(vals))
				for r := 0; r < m; r++ {
					for w := 0; w < n; w++ {
						flat[r*n+w] = vals[w*m+r]
					}
				}
				if !sortkernels.BatchFlat(flat, n) {
					t.Fatalf("n=%d m=%d: flat batch kernel missing", n, m)
				}
				for r := 0; r < m; r++ {
					for w := 0; w < n; w++ {
						if cols[w*m+r] != want[r][w] {
							t.Fatalf("n=%d m=%d cols/uint64: row %d slot %d = %d, want %d", n, m, r, w, cols[w*m+r], want[r][w])
						}
						if got := colsI[w*m+r]; got != wantI[r][w] {
							t.Fatalf("n=%d m=%d cols/int: row %d slot %d = %d, want %d", n, m, r, w, got, wantI[r][w])
						}
						if got := colsF[w*m+r]; got != wantF[r][w] {
							t.Fatalf("n=%d m=%d cols/float64: row %d slot %d = %v, want %v", n, m, r, w, got, wantF[r][w])
						}
						if flat[r*n+w] != want[r][w] {
							t.Fatalf("n=%d m=%d flat/uint64: row %d slot %d = %d, want %d", n, m, r, w, flat[r*n+w], want[r][w])
						}
					}
				}
			}
		}
	})
}

// TestBatchFloat64PreservesBitMultiset pins the float comparator's bit
// fidelity: rows full of ±0 (and signed extremes) keep the exact bit
// patterns as a multiset — the compare+blend SIMD comparator and the
// Go min/max builtins both move values, never canonicalize them.
func TestBatchFloat64PreservesBitMultiset(t *testing.T) {
	eachBatchImpl(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		negZero := math.Copysign(0, -1)
		pool := []float64{0, negZero, 1, -1, math.Inf(1), math.Inf(-1), 5e-324, math.MaxFloat64, -5e-324}
		for _, n := range sortkernels.BatchWidths() {
			for _, m := range []int{1, 7, 8, 33} {
				data := make([]float64, n*m)
				for i := range data {
					data[i] = pool[rng.Intn(len(pool))]
				}
				wantBits := make([][]uint64, m)
				for r := 0; r < m; r++ {
					row := make([]uint64, n)
					for w := 0; w < n; w++ {
						row[w] = math.Float64bits(data[w*m+r])
					}
					slices.Sort(row)
					wantBits[r] = row
				}
				if !sortkernels.Batch(data, m) {
					t.Fatalf("n=%d: no float64 batch kernel", n)
				}
				for r := 0; r < m; r++ {
					row := make([]uint64, n)
					for w := 0; w < n; w++ {
						if w > 0 && data[w*m+r] < data[(w-1)*m+r] {
							t.Fatalf("n=%d m=%d row %d not sorted", n, m, r)
						}
						row[w] = math.Float64bits(data[w*m+r])
					}
					slices.Sort(row)
					if !slices.Equal(row, wantBits[r]) {
						t.Fatalf("n=%d m=%d row %d: bit multiset changed: %x != %x", n, m, r, row, wantBits[r])
					}
				}
			}
		}
	})
}

// TestBatchRejectsBadShapes pins the dispatcher contract: impossible
// shapes report false and leave the data untouched.
func TestBatchRejectsBadShapes(t *testing.T) {
	data := []int{3, 1, 2}
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"non-multiple", sortkernels.Batch(data, 2)},
		{"negative", sortkernels.Batch(data, -1)},
		{"zero rows", sortkernels.Batch(data, 0)},
		{"flat non-multiple", sortkernels.BatchFlat(data, 2)},
		{"flat zero width", sortkernels.BatchFlat(data, 0)},
		{"too wide", sortkernels.Batch(make([]int, sortkernels.BatchMaxWidth+1), 1)},
		{"flat too wide", sortkernels.BatchFlat(make([]int, sortkernels.BatchMaxWidth+1), sortkernels.BatchMaxWidth+1)},
	} {
		if tc.ok {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if !slices.Equal(data, []int{3, 1, 2}) {
		t.Errorf("rejected batch was modified: %v", data)
	}
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"empty", sortkernels.Batch([]int(nil), 0)},
		{"empty rows", sortkernels.Batch([]int(nil), 7)},
		{"width 1", sortkernels.Batch([]int{2, 1}, 2)},
		{"flat empty", sortkernels.BatchFlat([]int(nil), 3)},
		{"flat width 1", sortkernels.BatchFlat([]int{2, 1}, 1)},
	} {
		if !tc.ok {
			t.Errorf("%s: rejected", tc.name)
		}
	}
}

// sortBatchWant returns the batch with every row sorted by slices.Sort
// (the semantics SortBatch promises).
func sortBatchWant[T cmp.Ordered](batch [][]T) [][]T {
	want := make([][]T, len(batch))
	for i, row := range batch {
		want[i] = slices.Clone(row)
		slices.Sort(want[i])
	}
	return want
}

func checkBatchEqual[T cmp.Ordered](t *testing.T, name string, got, want [][]T) {
	t.Helper()
	for r := range want {
		for i := range want[r] {
			if cmp.Compare(got[r][i], want[r][i]) != 0 {
				t.Fatalf("%s: row %d slot %d = %v, want %v", name, r, i, got[r][i], want[r][i])
			}
		}
	}
}

// checkBatchFacades sorts the width-uniform rows with SortBatch, and
// laid out row-major and column-major with SortBatchFlat and
// SortBatchCols, and checks each result against slices.Sort's.
func checkBatchFacades[T cmp.Ordered](t *testing.T, name string, rows [][]T) {
	t.Helper()
	if len(rows) == 0 {
		return
	}
	m, w := len(rows), len(rows[0])
	want := sortBatchWant(rows)
	got := make([][]T, m)
	flat := make([]T, 0, w*m)
	cols := make([]T, w*m)
	for r, row := range rows {
		got[r] = slices.Clone(row)
		flat = append(flat, row...)
		for j, v := range row {
			cols[j*m+r] = v
		}
	}
	SortBatch(got)
	checkBatchEqual(t, name+" batch", got, want)
	SortBatchFlat(flat, w)
	SortBatchCols(cols, m)
	for r := range want {
		for j := range want[r] {
			if cmp.Compare(flat[r*w+j], want[r][j]) != 0 {
				t.Fatalf("%s flat: row %d slot %d = %v, want %v", name, r, j, flat[r*w+j], want[r][j])
			}
			if cmp.Compare(cols[j*m+r], want[r][j]) != 0 {
				t.Fatalf("%s cols: row %d slot %d = %v, want %v", name, r, j, cols[j*m+r], want[r][j])
			}
		}
	}
}

// TestSortBatchMatchesSort checks the [][]T façade end to end: kernel
// widths, oversized widths, tiny batches, ragged batches, generic
// element types, and float64 rows containing NaN all end up exactly as
// if Sort ran on every row.
func TestSortBatchMatchesSort(t *testing.T) {
	eachBatchImpl(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for _, n := range []int{0, 1, 2, 3, 8, 16, 17, 40} {
			for _, m := range []int{0, 1, 3, 8, 100} {
				batch := make([][]int, m)
				fbatch := make([][]float64, m)
				sbatch := make([][]string, m)
				for r := range batch {
					batch[r] = make([]int, n)
					fbatch[r] = make([]float64, n)
					sbatch[r] = make([]string, n)
					for w := 0; w < n; w++ {
						v := rng.Intn(64) - 32
						batch[r][w] = v
						fbatch[r][w] = float64(v) / 2
						sbatch[r][w] = fmt.Sprintf("%03d", v+32)
					}
					if n > 0 && rng.Intn(4) == 0 {
						fbatch[r][rng.Intn(n)] = math.NaN()
					}
				}
				want, fwant, swant := sortBatchWant(batch), sortBatchWant(fbatch), sortBatchWant(sbatch)
				SortBatch(batch)
				SortBatch(fbatch)
				SortBatch(sbatch)
				name := fmt.Sprintf("n=%d m=%d", n, m)
				checkBatchEqual(t, name+" int", batch, want)
				checkBatchEqual(t, name+" float64", fbatch, fwant)
				checkBatchEqual(t, name+" string", sbatch, swant)
			}
		}

		// Ragged batch: falls back to per-slice Sort.
		ragged := [][]int{{3, 1, 2}, {5, 4}, {}, {9, 8, 7, 6, 5, 4, 3, 2, 1}, {1}, {2, 1}, {6, 6, 6}, {0, -1}, {10, 3}}
		want := sortBatchWant(ragged)
		SortBatch(ragged)
		checkBatchEqual(t, "ragged", ragged, want)
	})
}

// TestSortBatchColsAndFlat checks the two in-place layout façades,
// including the strided gather fallback above the kernel widths and
// the NaN fallback.
func TestSortBatchColsAndFlat(t *testing.T) {
	eachBatchImpl(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		for _, n := range []int{2, 3, 8, 16, 17, 40} {
			for _, m := range []int{1, 3, 8, 100} {
				rows := make([][]float64, m)
				for r := range rows {
					rows[r] = make([]float64, n)
					for w := range rows[r] {
						rows[r][w] = float64(rng.Intn(32))
					}
					if rng.Intn(3) == 0 {
						rows[r][rng.Intn(n)] = math.NaN()
					}
				}
				want := sortBatchWant(rows)

				cols := make([]float64, n*m)
				flat := make([]float64, n*m)
				for r := 0; r < m; r++ {
					for w := 0; w < n; w++ {
						cols[w*m+r] = rows[r][w]
						flat[r*n+w] = rows[r][w]
					}
				}
				SortBatchCols(cols, m)
				SortBatchFlat(flat, n)
				for r := 0; r < m; r++ {
					for w := 0; w < n; w++ {
						if cmp.Compare(cols[w*m+r], want[r][w]) != 0 {
							t.Fatalf("cols n=%d m=%d row %d slot %d = %v, want %v", n, m, r, w, cols[w*m+r], want[r][w])
						}
						if cmp.Compare(flat[r*n+w], want[r][w]) != 0 {
							t.Fatalf("flat n=%d m=%d row %d slot %d = %v, want %v", n, m, r, w, flat[r*n+w], want[r][w])
						}
					}
				}
			}
		}

		// Strings through the abbreviated-key batch path.
		words := []string{"pear", "fig", "apple", "yuzu", "kiwi", "date", "plum", "lime"}
		m := 37
		colsS := make([]string, 4*m)
		for i := range colsS {
			colsS[i] = words[rng.Intn(len(words))]
		}
		wantS := make([][]string, m)
		for r := 0; r < m; r++ {
			wantS[r] = []string{colsS[r], colsS[m+r], colsS[2*m+r], colsS[3*m+r]}
			slices.Sort(wantS[r])
		}
		SortBatchCols(colsS, m)
		for r := 0; r < m; r++ {
			for w := 0; w < 4; w++ {
				if colsS[w*m+r] != wantS[r][w] {
					t.Fatalf("cols strings: row %d slot %d = %q, want %q", r, w, colsS[w*m+r], wantS[r][w])
				}
			}
		}
	})
}

// TestSortBatchPanicsOnBadShape pins the façade contract for shapes no
// batch can have.
func TestSortBatchPanicsOnBadShape(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("cols non-multiple", func() { SortBatchCols([]int{1, 2, 3}, 2) })
	mustPanic("cols negative", func() { SortBatchCols([]int{1, 2, 3}, -1) })
	mustPanic("cols zero rows", func() { SortBatchCols([]int{1, 2, 3}, 0) })
	mustPanic("flat non-multiple", func() { SortBatchFlat([]int{1, 2, 3}, 2) })
	mustPanic("flat negative", func() { SortBatchFlat([]int{1, 2, 3}, -1) })
	mustPanic("flat zero width", func() { SortBatchFlat([]int{1, 2, 3}, 0) })
	// Degenerate-but-consistent shapes are fine.
	SortBatchCols([]int(nil), 0)
	SortBatchFlat([]int(nil), 0)
	SortBatchCols([]int{5, 1}, 2) // single column
	SortBatchFlat([]int{5, 1}, 1) // width-1 rows
}

// Named element types: the generic kernels serve them like their
// underlying types.
type (
	namedInt   int
	namedFloat float64
)

// TestSortDispatchZeroAlloc pins the dispatch paths as allocation-free:
// Sort's kernel lookup is a switch on the width, for every element
// kind, the columnar batch entry point runs fully in place, and the
// string paths sort their abbreviated keys without allocating.
func TestSortDispatchZeroAlloc(t *testing.T) {
	s := []int{5, 2, 7, 1, 8, 3, 6, 4}
	if n := testing.AllocsPerRun(100, func() { Sort(s) }); n != 0 {
		t.Errorf("Sort int8: %v allocs per run, want 0", n)
	}
	f := []float64{5, 2, 7, 1, 8, 3, 6, 4}
	if n := testing.AllocsPerRun(100, func() { Sort(f) }); n != 0 {
		t.Errorf("Sort float64: %v allocs per run, want 0", n)
	}
	i32 := []int32{5, 2, 7, 1, 8, 3, 6, 4}
	if n := testing.AllocsPerRun(100, func() { Sort(i32) }); n != 0 {
		t.Errorf("Sort int32: %v allocs per run, want 0", n)
	}
	ni := []namedInt{5, 2, 7, 1, 8, 3, 6, 4}
	if n := testing.AllocsPerRun(100, func() { Sort(ni) }); n != 0 {
		t.Errorf("Sort namedInt: %v allocs per run, want 0", n)
	}
	cols := make([]int, 8*128)
	if n := testing.AllocsPerRun(100, func() { SortBatchCols(cols, 128) }); n != 0 {
		t.Errorf("SortBatchCols: %v allocs per run, want 0", n)
	}
	// The flat and [][]T paths go through pooled scratch: steady state
	// must not allocate per call (the pool may refill occasionally
	// after a GC, hence the < 1 bound on the average).
	flat := make([]int, 8*128)
	if n := testing.AllocsPerRun(100, func() { SortBatchFlat(flat, 8) }); n >= 1 {
		t.Errorf("SortBatchFlat: %v allocs per run, want < 1", n)
	}

	// Strings: Sort keeps its key array on the stack (sortkernels.Ordered
	// calls each width's kernel directly; an indirect call would move
	// the array to the heap); SortBatchCols and SortBatchFlat take their
	// keys from a pool, and SortBatch sorts each row with Sort.
	words := []string{"pear", "fig", "apple", "yuzu", "kiwifruit", "date", "plum", "lime"}
	ss := slices.Clone(words)
	if n := testing.AllocsPerRun(100, func() { Sort(ss) }); n != 0 {
		t.Errorf("Sort string8: %v allocs per run, want 0", n)
	}
	strs := make([]string, 8*128)
	for i := range strs {
		strs[i] = words[i%len(words)]
	}
	if n := testing.AllocsPerRun(100, func() { SortBatchCols(strs, 128) }); n >= 1 {
		t.Errorf("SortBatchCols string: %v allocs per run, want < 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { SortBatchFlat(strs, 8) }); n >= 1 {
		t.Errorf("SortBatchFlat string: %v allocs per run, want < 1", n)
	}
	rows := make([][]string, 128)
	for r := range rows {
		rows[r] = strs[r*8 : (r+1)*8]
	}
	if n := testing.AllocsPerRun(100, func() { SortBatch(rows) }); n >= 1 {
		t.Errorf("SortBatch string: %v allocs per run, want < 1", n)
	}
}

// FuzzSortBatch cross-checks the batch façades against slices.Sort on
// fuzzer-chosen shapes and values, including ragged batches and NaN
// payloads (compared under cmp.Compare, which treats NaNs as equal).
// Its NaN lane reads every value as a float64, a float32 (its low 32
// bits) and a named float64 type, through all three façades. Its
// string lane cuts windows of the fuzz bytes that start at one of four
// offsets, so their 7-byte key prefixes collide and runs of tied keys
// are sorted again on later bytes.
func FuzzSortBatch(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(4), false)
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f}, uint8(2), true)
	f.Add([]byte{}, uint8(0), false)
	// String-lane seeds, one (offset, length) byte pair per string.
	// NUL runs of lengths 0..20: zero padding against real NUL bytes.
	nul := make([]byte, 24)
	for i := 0; i < 64; i++ {
		nul = append(nul, byte(i%2), byte(i%21))
	}
	f.Add(nul, uint8(8), false)
	// Lengths 6..11 over "aaaaaaaabcde": shared 7-byte prefixes that
	// differ only after byte 7.
	prefix := []byte("aaaaaaaabcde")
	for i := 0; i < 8; i++ {
		prefix = append(prefix, 0, 6, 0, 7, 0, 8, 1, 8, 0, 9, 1, 9, 1, 11, 2, 7)
	}
	f.Add(prefix, uint8(6), true)
	// NaN-lane seed: 8 rows of width 8, enough for the batch kernels,
	// that read as [3 NaN 1 2 NaN 0 5 4] at float64 and at float32.
	var nanRows []byte
	for r := 0; r < 8; r++ {
		for _, v := range []float64{3, math.NaN(), 1, 2, math.NaN(), 0, 5, 4} {
			bits := math.Float64bits(v)&^0xffffffff | uint64(math.Float32bits(float32(v)))
			nanRows = binary.LittleEndian.AppendUint64(nanRows, bits)
		}
	}
	f.Add(nanRows, uint8(8), false)
	f.Fuzz(func(t *testing.T, data []byte, width uint8, ragged bool) {
		if len(data) > 8*512 {
			data = data[:8*512]
		}
		vals := make([]uint64, len(data)/8)
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint64(data[8*i:])
		}
		w := int(width) % 24
		// [][]T façade, optionally with a ragged final row.
		var batch [][]uint64
		var fbatch [][]float64
		if w > 0 {
			for i := 0; i+w <= len(vals); i += w {
				row := slices.Clone(vals[i : i+w])
				batch = append(batch, row)
				frow := make([]float64, w)
				for j, v := range row {
					frow[j] = math.Float64frombits(v)
				}
				fbatch = append(fbatch, frow)
			}
		}
		if ragged && len(vals) > 0 {
			batch = append(batch, slices.Clone(vals[:len(vals)%max(w, 1)]))
		}
		f32 := make([][]float32, len(fbatch))
		named := make([][]namedFloat, len(fbatch))
		for r, row := range fbatch {
			f32[r] = make([]float32, w)
			named[r] = make([]namedFloat, w)
			for j, v := range row {
				f32[r][j] = math.Float32frombits(uint32(math.Float64bits(v)))
				named[r][j] = namedFloat(v)
			}
		}
		checkBatchFacades(t, "float64", fbatch)
		checkBatchFacades(t, "float32", f32)
		checkBatchFacades(t, "namedFloat", named)
		want := sortBatchWant(batch)
		SortBatch(batch)
		checkBatchEqual(t, "uint64", batch, want)

		// Column-major façade over the same rows.
		if w > 0 {
			m := len(vals) / w
			cols := make([]uint64, w*m)
			for r := 0; r < m; r++ {
				for j := 0; j < w; j++ {
					cols[j*m+r] = vals[r*w+j]
				}
			}
			SortBatchCols(cols, m)
			for r := 0; r < m; r++ {
				for j := 0; j < w; j++ {
					if cols[j*m+r] != want[r][j] {
						t.Fatalf("cols: row %d slot %d = %d, want %d", r, j, cols[j*m+r], want[r][j])
					}
				}
			}
		}

		// String lane: byte pair i picks a window of data starting at
		// offset data[2i]%4 with length data[2i+1]%24, long enough for
		// ties to be keyed three times.
		strs := make([]string, len(data)/2)
		for i := range strs {
			lo := min(int(data[2*i]%4), len(data))
			strs[i] = string(data[lo:min(lo+int(data[2*i+1]%24), len(data))])
		}
		if w == 0 {
			return
		}
		m := len(strs) / w
		var sbatch [][]string
		flat := slices.Clone(strs[:w*m])
		cols := make([]string, w*m)
		for r := 0; r < m; r++ {
			sbatch = append(sbatch, slices.Clone(strs[r*w:(r+1)*w]))
			for j := 0; j < w; j++ {
				cols[j*m+r] = strs[r*w+j]
			}
		}
		if ragged {
			sbatch = append(sbatch, slices.Clone(strs[w*m:]))
		}
		swant := sortBatchWant(sbatch)
		SortBatch(sbatch)
		checkBatchEqual(t, "string", sbatch, swant)
		SortBatchFlat(flat, w)
		SortBatchCols(cols, m)
		for r := 0; r < m; r++ {
			for j := 0; j < w; j++ {
				if flat[r*w+j] != swant[r][j] {
					t.Fatalf("string flat: row %d slot %d = %q, want %q", r, j, flat[r*w+j], swant[r][j])
				}
				if cols[j*m+r] != swant[r][j] {
					t.Fatalf("string cols: row %d slot %d = %q, want %q", r, j, cols[j*m+r], swant[r][j])
				}
			}
		}
	})
}
