package experiments

import (
	"shufflenet/internal/obs"
	"shufflenet/internal/par"
)

// Cell counters: total is bumped when a sweep's cells are scheduled,
// done as each cell finishes, so a live-telemetry sample of the pair
// reads as sweep completion (and the rate of done as cells/sec). One
// atomic add per cell — cells are seconds-scale units of work.
var (
	metCellsTotal = obs.C("experiments.cells.total")
	metCellsDone  = obs.C("experiments.cells.done")
)

// cellRow is one experiment cell's output: the row it contributes to
// the table (nil while unfinished) and the error that stopped it, if
// any. Cells are independent by construction — anything random they
// need is either pre-drawn sequentially from the shared stream (E2,
// E3, A1, A2, which keeps their tables byte-for-byte identical to the
// sequential implementation at every seed the old code completed) or
// drawn from a per-cell derived stream (E5, E8, whose draw counts
// depend on intermediate results).
type cellRow struct {
	cells [][]interface{} // one or more rows, in order
	err   error
}

// runCells evaluates count independent cells on cfg.Workers workers
// (0 = GOMAXPROCS) with cancellation probed per cell, then emits the
// longest prefix of finished cells into the table in index order —
// exactly the rows the sequential loop would have emitted before a
// cut. It returns true if every cell finished, false if the table was
// truncated (the caller should return it as-is).
func runCells(cfg Config, t *Table, count int, cell func(i int) cellRow) bool {
	results := make([]cellRow, count)
	done := make([]bool, count)
	metCellsTotal.Add(int64(count))
	err := par.ForEach(cfg.Context(), count, cfg.Workers, 1, func(i int) {
		results[i] = cell(i)
		done[i] = true
		metCellsDone.Inc()
	})
	for i := 0; i < count; i++ {
		if !done[i] {
			break
		}
		if results[i].err != nil {
			t.NoteCanceled(results[i].err)
			return false
		}
		for _, row := range results[i].cells {
			t.Rows = append(t.Rows, formatRow(row))
		}
	}
	if err != nil {
		t.NoteCanceled(err)
		return false
	}
	return true
}

// formatRow renders one AddRow-style cell list (shared with Table.AddRow).
func formatRow(cells []interface{}) []string {
	tmp := &Table{}
	tmp.AddRow(cells...)
	return tmp.Rows[0]
}

// row is a convenience constructor for a single-row cell result.
func row(cells ...interface{}) cellRow {
	return cellRow{cells: [][]interface{}{cells}}
}

// cellSeed derives a deterministic per-cell RNG seed from the run seed
// and cell coordinates (splitmix-style mixing, so neighboring cells get
// unrelated streams). Used by the experiments whose per-cell draw
// counts depend on intermediate results (E5, E8): their cells cannot
// share one sequential stream without serializing the sweep.
func cellSeed(seed int64, vs ...int64) int64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, v := range vs {
		h ^= uint64(v)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return int64(h &^ (1 << 63)) // non-negative, for readable journals
}
