package shufflenet_test

// Benchmarks for the vertical batch sorting kernels (PR 10): the
// columnar and row-major batch entry points against looping Sort (or
// slices.Sort) over the same rows, across widths and batch depths, and
// the raw kernels with the SIMD switch pinned each way.
// BenchmarkSortBatch* and BenchmarkBatchKernel* are guarded in
// cmd/benchjson -diff (see Makefile BENCH_GUARDED).
//
// Methodology: as in BenchmarkGeneratedSort, each iteration copies a
// pristine unsorted batch into the working buffer and sorts it; the
// /baseline leg is that copy alone, so the honest per-sort cost (the
// ratio recorded in EXPERIMENTS.md) is net of it. The copy is the same
// memmove for every leg of one shape.

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"shufflenet"
	"shufflenet/sortkernels"
)

// benchBatch times f over a width-n, m-row batch laid out by layout
// ("rows" builds the row-major/column-major flat buffer itself).
func benchBatch[T any](b *testing.B, n, m int, cols bool, fill func(*rand.Rand) T, f func(data []T)) {
	rng := rand.New(rand.NewSource(42))
	rows := make([][]T, m)
	for r := range rows {
		rows[r] = make([]T, n)
		for w := range rows[r] {
			rows[r][w] = fill(rng)
		}
	}
	src := make([]T, n*m)
	for r := 0; r < m; r++ {
		for w := 0; w < n; w++ {
			if cols {
				src[w*m+r] = rows[r][w]
			} else {
				src[r*n+w] = rows[r][w]
			}
		}
	}
	buf := make([]T, n*m)
	b.ReportAllocs()
	b.SetBytes(int64(n * m * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, src)
		f(buf)
	}
}

var (
	batchWidths = []int{4, 8, 16}
	batchDepths = []int{8, 64, 1024}
)

// BenchmarkSortBatch: the public batch entry points against per-row
// sorting. Legs per shape — baseline: the harness copy alone; looped:
// shufflenet.Sort row by row (the pre-batch way); cols: SortBatchCols
// on the column-major layout; flat: SortBatchFlat on the row-major
// layout (includes the transpose round trip); stdlib: slices.Sort row
// by row. The headline ratio (≥4x at n=8, m=1024) is looped vs cols,
// net of baseline.
func BenchmarkSortBatch(b *testing.B) {
	intf := func(rng *rand.Rand) int { return int(rng.Int63()) }
	for _, n := range batchWidths {
		for _, m := range batchDepths {
			tag := fmt.Sprintf("int-n%d-m%d", n, m)
			b.Run(tag+"/baseline", func(b *testing.B) {
				benchBatch(b, n, m, true, intf, func(data []int) {})
			})
			b.Run(tag+"/looped", func(b *testing.B) {
				benchBatch(b, n, m, false, intf, func(data []int) {
					for r := 0; r < m; r++ {
						shufflenet.Sort(data[r*n : (r+1)*n])
					}
				})
			})
			b.Run(tag+"/cols", func(b *testing.B) {
				benchBatch(b, n, m, true, intf, func(data []int) {
					shufflenet.SortBatchCols(data, m)
				})
			})
			b.Run(tag+"/flat", func(b *testing.B) {
				benchBatch(b, n, m, false, intf, func(data []int) {
					shufflenet.SortBatchFlat(data, n)
				})
			})
		}
	}
	// The remaining element families and entry points at the headline
	// shape only.
	const n, m = 8, 1024
	b.Run("uint64-n8-m1024/looped", func(b *testing.B) {
		benchBatch(b, n, m, false, (*rand.Rand).Uint64, func(data []uint64) {
			for r := 0; r < m; r++ {
				shufflenet.Sort(data[r*n : (r+1)*n])
			}
		})
	})
	b.Run("uint64-n8-m1024/cols", func(b *testing.B) {
		benchBatch(b, n, m, true, (*rand.Rand).Uint64, func(data []uint64) {
			shufflenet.SortBatchCols(data, m)
		})
	})
	b.Run("uint64-n8-m1024/flat", func(b *testing.B) {
		benchBatch(b, n, m, false, (*rand.Rand).Uint64, func(data []uint64) {
			shufflenet.SortBatchFlat(data, n)
		})
	})
	b.Run("float64-n8-m1024/looped", func(b *testing.B) {
		benchBatch(b, n, m, false, (*rand.Rand).Float64, func(data []float64) {
			for r := 0; r < m; r++ {
				shufflenet.Sort(data[r*n : (r+1)*n])
			}
		})
	})
	b.Run("float64-n8-m1024/cols", func(b *testing.B) {
		benchBatch(b, n, m, true, (*rand.Rand).Float64, func(data []float64) {
			shufflenet.SortBatchCols(data, m)
		})
	})
	b.Run("float64-n8-m1024/flat", func(b *testing.B) {
		benchBatch(b, n, m, false, (*rand.Rand).Float64, func(data []float64) {
			shufflenet.SortBatchFlat(data, n)
		})
	})
	b.Run("int-n8-m1024/stdlib", func(b *testing.B) {
		benchBatch(b, n, m, false, intf, func(data []int) {
			for r := 0; r < m; r++ {
				slices.Sort(data[r*n : (r+1)*n])
			}
		})
	})
	b.Run("int-n8-m1024/batch2d", func(b *testing.B) {
		benchBatch2D(b, n, m, intf)
	})
	// Strings take the abbreviated-key path: uint64 keys through the
	// batch kernels, then a permutation and the tie pass.
	b.Run("string-n8-m1024/looped", func(b *testing.B) {
		benchBatch(b, n, m, false, benchString, func(data []string) {
			for r := 0; r < m; r++ {
				shufflenet.Sort(data[r*n : (r+1)*n])
			}
		})
	})
	b.Run("string-n8-m1024/cols", func(b *testing.B) {
		benchBatch(b, n, m, true, benchString, func(data []string) {
			shufflenet.SortBatchCols(data, m)
		})
	})
	b.Run("string-n8-m1024/flat", func(b *testing.B) {
		benchBatch(b, n, m, false, benchString, func(data []string) {
			shufflenet.SortBatchFlat(data, n)
		})
	})
	b.Run("string-n8-m1024/batch2d", func(b *testing.B) {
		benchBatch2D(b, n, m, benchString)
	})
	b.Run("string-n8-m1024/stdlib", func(b *testing.B) {
		benchBatch(b, n, m, false, benchString, func(data []string) {
			for r := 0; r < m; r++ {
				slices.Sort(data[r*n : (r+1)*n])
			}
		})
	})
	// Strings sharing their first 8 bytes: every key prefix in a row
	// ties, so the tie pass orders whole rows.
	for _, w := range []int{8, 16} {
		tag := fmt.Sprintf("string-prefix-n%d-m%d", w, m)
		b.Run(tag+"/looped", func(b *testing.B) {
			benchBatch(b, w, m, false, benchPrefixString, func(data []string) {
				for r := 0; r < m; r++ {
					shufflenet.Sort(data[r*w : (r+1)*w])
				}
			})
		})
		b.Run(tag+"/cols", func(b *testing.B) {
			benchBatch(b, w, m, true, benchPrefixString, func(data []string) {
				shufflenet.SortBatchCols(data, m)
			})
		})
		b.Run(tag+"/flat", func(b *testing.B) {
			benchBatch(b, w, m, false, benchPrefixString, func(data []string) {
				shufflenet.SortBatchFlat(data, w)
			})
		})
		b.Run(tag+"/stdlib", func(b *testing.B) {
			benchBatch(b, w, m, false, benchPrefixString, func(data []string) {
				for r := 0; r < m; r++ {
					slices.Sort(data[r*w : (r+1)*w])
				}
			})
		})
	}
}

// benchBatch2D times SortBatch on an m-row [][]T of width n, the
// gather/scatter round trip (or string key build) included.
func benchBatch2D[T cmp.Ordered](b *testing.B, n, m int, fill func(*rand.Rand) T) {
	rng := rand.New(rand.NewSource(42))
	src := make([][]T, m)
	for r := range src {
		src[r] = make([]T, n)
		for w := range src[r] {
			src[r][w] = fill(rng)
		}
	}
	buf := make([][]T, m)
	for r := range buf {
		buf[r] = make([]T, n)
	}
	b.ReportAllocs()
	b.SetBytes(int64(n * m * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range buf {
			copy(buf[r], src[r])
		}
		shufflenet.SortBatch(buf)
	}
}

// BenchmarkBatchKernel: the columnar kernels, through
// sortkernels.Batch, with the SIMD switch pinned each way — the
// comparator schedule is branchless and data-independent, so
// re-sorting sorted data costs the same and no per-op copy is needed;
// these numbers are kernel cost plus one shape check.
func BenchmarkBatchKernel(b *testing.B) {
	const m = 1024
	rng := rand.New(rand.NewSource(42))
	for _, impl := range []struct {
		name string
		simd bool
	}{{"go", false}, {"simd", true}} {
		if impl.simd && !sortkernels.BatchSIMDAvailable() {
			continue
		}
		for _, n := range batchWidths {
			data := make([]int, n*m)
			for i := range data {
				data[i] = int(rng.Int63())
			}
			b.Run(fmt.Sprintf("cols-%s/int-n%d-m%d", impl.name, n, m), func(b *testing.B) {
				prev := sortkernels.SetBatchSIMD(impl.simd)
				defer sortkernels.SetBatchSIMD(prev)
				k := sortkernels.Batch[int]
				b.ReportAllocs()
				b.SetBytes(int64(n * m * 8))
				for i := 0; i < b.N; i++ {
					k(data, m)
				}
			})
		}
		data := make([]float64, 8*m)
		for i := range data {
			data[i] = rng.Float64()
		}
		b.Run(fmt.Sprintf("cols-%s/float64-n8-m%d", impl.name, m), func(b *testing.B) {
			prev := sortkernels.SetBatchSIMD(impl.simd)
			defer sortkernels.SetBatchSIMD(prev)
			k := sortkernels.Batch[float64]
			b.ReportAllocs()
			b.SetBytes(int64(8 * m * 8))
			for i := 0; i < b.N; i++ {
				k(data, m)
			}
		})
	}
}
