package main

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"shufflenet"
)

// The sortlib workload calls the root sorting façade across widths
// 2..16: Sort on int, uint64, float64 and string, SortFunc on a struct
// key, and SortBatch / SortBatchFlat / SortBatchCols at a small and a
// large row count. It is the only workload that reaches sortkernels,
// and it includes the three families no other benchmark measures
// (Ordered, Func, batch Ordered). slices.Sort on the int inputs is the
// drift control: it shares the machine, not the code.
const (
	sortGroups  = 64 // slices per Sort call group
	batchSmallM = 16
	batchLargeM = 1024
	sortRounds  = 10 // input regenerations per run, each followed by a cold pass
)

// leg is one timed call shape. reset copies the pristine input into
// the working buffer and ok compares the result with slices.Sort's;
// only call is timed.
type leg struct {
	name   string // span name
	family string // "int" … "func", "batch_int" …, or "control"
	batch  bool   // counts toward batch_ns_per_elem, else sort_ns_per_elem
	elems  int
	reset  func()
	call   func()
	ok     func() bool
}

// keyed is the SortFunc element, ordered by key alone.
type keyed struct {
	key     uint64
	payload int
}

func lessKeyed(a, b keyed) bool { return a.key < b.key }
func cmpKeyed(a, b keyed) int   { return cmp.Compare(a.key, b.key) }

func genInt(r *rand.Rand) int     { return int(r.Uint64()) }
func genU64(r *rand.Rand) uint64  { return r.Uint64() }
func genF64(r *rand.Rand) float64 { return r.NormFloat64() }
func genKeyed(r *rand.Rand) keyed { k := r.Uint64(); return keyed{k, int(k >> 33)} }
func genStr(r *rand.Rand) string {
	var b strings.Builder
	for i, n := 0, 4+r.Intn(12); i < n; i++ {
		b.WriteByte(byte('a' + r.Intn(26)))
	}
	return b.String()
}

// groupLeg sorts sortGroups slices of width w, one call each.
func groupLeg[T comparable](name, family string, w int, src, want []T, sort func([]T)) leg {
	work := make([]T, len(src))
	return leg{
		name: name, family: family, elems: len(src),
		reset: func() { copy(work, src) },
		call: func() {
			for i := 0; i < len(work); i += w {
				sort(work[i : i+w])
			}
		},
		ok: func() bool { return slices.Equal(work, want) },
	}
}

// groupInput draws sortGroups slices of width w and their sorted form.
func groupInput[T any](w int, gen func(*rand.Rand) T, rng *rand.Rand, order func(a, b T) int) (src, want []T) {
	src = make([]T, w*sortGroups)
	for i := range src {
		src[i] = gen(rng)
	}
	want = slices.Clone(src)
	for i := 0; i < len(want); i += w {
		slices.SortFunc(want[i:i+w], order)
	}
	return src, want
}

// scalarLegs builds the Sort legs of one element type and, with
// control set, the slices.Sort legs on the same inputs.
func scalarLegs[T cmp.Ordered](family string, gen func(*rand.Rand) T, rng *rand.Rand, control bool) []leg {
	var legs []leg
	for w := 2; w <= 16; w++ {
		src, want := groupInput(w, gen, rng, cmp.Compare[T])
		legs = append(legs, groupLeg(fmt.Sprintf("Sort[%s]/w%d", family, w), family, w, src, want, shufflenet.Sort[T]))
		if control {
			legs = append(legs, groupLeg(fmt.Sprintf("slices.Sort[%s]/w%d", family, w), "control", w, src, want, slices.Sort[[]T]))
		}
	}
	return legs
}

func funcLegs(rng *rand.Rand) []leg {
	var legs []leg
	for w := 2; w <= 16; w++ {
		src, want := groupInput(w, genKeyed, rng, cmpKeyed)
		legs = append(legs, groupLeg(fmt.Sprintf("SortFunc[keyed]/w%d", w), "func", w, src, want,
			func(s []keyed) { shufflenet.SortFunc(s, lessKeyed) }))
	}
	return legs
}

// batchLegs builds the SortBatch, SortBatchFlat and SortBatchCols legs
// of one element type for every width at both row counts.
func batchLegs[T cmp.Ordered](family string, gen func(*rand.Rand) T, rng *rand.Rand) []leg {
	var legs []leg
	fam := "batch_" + family
	for w := 2; w <= 16; w++ {
		for _, m := range []int{batchSmallM, batchLargeM} {
			rows := make([]T, w*m) // row-major
			for i := range rows {
				rows[i] = gen(rng)
			}
			want := slices.Clone(rows)
			for r := 0; r < m; r++ {
				slices.Sort(want[r*w : (r+1)*w])
			}
			tag := fmt.Sprintf("[%s]/w%d/m%d", family, w, m)

			work2D := make([]T, w*m)
			views := make([][]T, m)
			for r := range views {
				views[r] = work2D[r*w : (r+1)*w]
			}
			flat := make([]T, w*m)
			colSrc, colWant := transpose(rows, m, w), transpose(want, m, w)
			cols := make([]T, w*m)
			legs = append(legs,
				leg{
					name: "SortBatch" + tag, family: fam, batch: true, elems: w * m,
					reset: func() { copy(work2D, rows) },
					call:  func() { shufflenet.SortBatch(views) },
					ok:    func() bool { return slices.Equal(work2D, want) },
				},
				leg{
					name: "SortBatchFlat" + tag, family: fam, batch: true, elems: w * m,
					reset: func() { copy(flat, rows) },
					call:  func() { shufflenet.SortBatchFlat(flat, w) },
					ok:    func() bool { return slices.Equal(flat, want) },
				},
				leg{
					name: "SortBatchCols" + tag, family: fam, batch: true, elems: w * m,
					reset: func() { copy(cols, colSrc) },
					call:  func() { shufflenet.SortBatchCols(cols, m) },
					ok:    func() bool { return slices.Equal(cols, colWant) },
				})
		}
	}
	return legs
}

// transpose turns m row-major rows of width w into w columns of length m.
func transpose[T any](rows []T, m, w int) []T {
	out := make([]T, len(rows))
	for r := 0; r < m; r++ {
		for c := 0; c < w; c++ {
			out[c*m+r] = rows[r*w+c]
		}
	}
	return out
}

// buildLegs generates every leg's input from the seed. Every call
// returns the same legs in the same order, over fresh buffers.
func buildLegs(seed int64) []leg {
	rng := rand.New(rand.NewSource(seed))
	var legs []leg
	legs = append(legs, scalarLegs("int", genInt, rng, true)...)
	legs = append(legs, scalarLegs("uint64", genU64, rng, false)...)
	legs = append(legs, scalarLegs("float64", genF64, rng, false)...)
	legs = append(legs, scalarLegs("ordered_string", genStr, rng, false)...)
	legs = append(legs, funcLegs(rng)...)
	legs = append(legs, batchLegs("int", genInt, rng)...)
	legs = append(legs, batchLegs("uint64", genU64, rng)...)
	legs = append(legs, batchLegs("float64", genF64, rng)...)
	legs = append(legs, batchLegs("ordered_string", genStr, rng)...)
	return legs
}

// legTimes collects each leg's call times over repeated passes; index
// i is leg i of buildLegs.
type legTimes struct {
	ms     [][]float64
	passes int
	wrong  int64
	op     int64 // request id of the last span
}

func newLegTimes(n int) *legTimes { return &legTimes{ms: make([][]float64, n)} }

// pass runs every leg once. With rec set, each call is a span.
func (t *legTimes) pass(legs []leg, rec *recorder) {
	for i := range legs {
		l := &legs[i]
		l.reset()
		t.op++
		start := time.Now()
		l.call()
		d := time.Since(start)
		if rec != nil {
			layer := "sortkernels"
			if l.family == "control" {
				layer = "control"
			}
			rec.add(0, t.op, l.name, layer, start, start.Add(d))
		}
		if !l.ok() {
			t.wrong++
		}
		t.ms[i] = append(t.ms[i], ms(d))
	}
	t.passes++
}

// calls counts the timed library calls, control included.
func (t *legTimes) calls() int64 { return int64(t.passes * len(t.ms)) }

// fast is leg i's time, the fastQ quantile of its repeats, in ms.
func (t *legTimes) fast(i int) float64 { return percentile(t.ms[i], fastQ) }

// total sums the fast times, in ms, and the elements of the legs keep
// selects.
func (t *legTimes) total(legs []leg, keep func(*leg) bool) (msSum float64, elems int) {
	for i := range legs {
		if keep(&legs[i]) {
			msSum += t.fast(i)
			elems += legs[i].elems
		}
	}
	return msSum, elems
}

// nsPerElem is the fast time per element over the legs keep selects.
func (t *legTimes) nsPerElem(legs []leg, keep func(*leg) bool) float64 {
	msSum, elems := t.total(legs, keep)
	return ratio(msSum*1e6, float64(elems))
}

func isLibrary(l *leg) bool { return l.family != "control" }
func isSort(l *leg) bool    { return isLibrary(l) && !l.batch }
func isBatch(l *leg) bool   { return l.batch }
func ofFamily(f string) func(*leg) bool {
	return func(l *leg) bool { return l.family == f }
}

func runSortlib(cfg config) (*report, error) {
	if cfg.trace {
		return traceSortlib(cfg)
	}
	// Each round regenerates the inputs into fresh buffers (setup_s),
	// makes one cold pass over every leg, then warm passes for the rest
	// of its share of the time. A leg's cold time is its fastest cold
	// pass, its warm time the fastest tenth of its warm passes.
	var legs []leg
	var cold, warm *legTimes
	var setups []float64
	for r := 0; r < sortRounds; r++ {
		t := time.Now()
		legs = buildLegs(cfg.seed)
		setups = append(setups, time.Since(t).Seconds())
		if cold == nil {
			cold, warm = newLegTimes(len(legs)), newLegTimes(len(legs))
		}
		end := time.Now().Add(cfg.dur / sortRounds)
		cold.pass(legs, nil)
		for first := true; first || time.Now().Before(end); first = false {
			warm.pass(legs, nil)
		}
	}
	var lat []float64 // one per library leg: its warm time
	for i := range legs {
		if isLibrary(&legs[i]) {
			lat = append(lat, warm.fast(i))
		}
	}
	warmMS, _ := warm.total(legs, isLibrary)
	coldMS, _ := cold.total(legs, isLibrary)
	wrong := warm.wrong + cold.wrong
	return &report{
		attempted: warm.calls() + cold.calls(), failed: wrong, wrong: wrong,
		metrics: map[string]float64{
			"setup_s":    median(setups),
			"max_rss_mb": maxRSSMB(),
			"rps":        float64(len(lat)) / (warmMS / 1e3),
			"p50_ms":     percentile(lat, 0.50),
			"p99_ms":     percentile(lat, 0.99),
			"cold_s":     coldMS / 1e3,
			"warm_s":     warmMS / 1e3,
		},
		notes: map[string]any{
			"legs": len(lat), "warm_passes": warm.passes, "cold_passes": cold.passes,
			"beyond_p99":                      beyond(lat, 0.99),
			"sort_ns_per_elem":                warm.nsPerElem(legs, isSort),
			"batch_ns_per_elem":               warm.nsPerElem(legs, isBatch),
			"control.slices_sort_ns_per_elem": warm.nsPerElem(legs, ofFamily("control")),
		},
	}, nil
}

// traceSortlib makes warm passes untraced for half the time, then
// traced for the other half, and reports ns per element by family from
// the traced half.
func traceSortlib(cfg config) (*report, error) {
	legs := buildLegs(cfg.seed)
	plain, traced := newLegTimes(len(legs)), newLegTimes(len(legs))
	for end, first := time.Now().Add(cfg.dur/2), true; first || time.Now().Before(end); first = false {
		plain.pass(legs, nil)
	}
	rec := newRecorder()
	for end, first := time.Now().Add(cfg.dur/2), true; first || time.Now().Before(end); first = false {
		traced.pass(legs, rec)
	}
	plainMS, _ := plain.total(legs, isLibrary)
	tracedMS, _ := traced.total(legs, isLibrary)
	m := map[string]float64{
		"sort_ns_per_elem":                traced.nsPerElem(legs, isSort),
		"batch_ns_per_elem":               traced.nsPerElem(legs, isBatch),
		"control.slices_sort_ns_per_elem": traced.nsPerElem(legs, ofFamily("control")),
		"trace.overhead_pct":              overheadPct(tracedMS, plainMS),
	}
	for _, f := range []string{"int", "uint64", "float64", "ordered_string", "func"} {
		m["sortkernels."+f+"_ns_per_elem"] = traced.nsPerElem(legs, ofFamily(f))
	}
	for _, f := range []string{"int", "uint64", "float64", "ordered_string"} {
		m["sortkernels.batch_"+f+"_ns_per_elem"] = traced.nsPerElem(legs, ofFamily("batch_"+f))
	}
	wrong := plain.wrong + traced.wrong
	rep := &report{
		attempted: plain.calls() + traced.calls(), failed: wrong, wrong: wrong, metrics: m,
		notes: map[string]any{"plain_passes": plain.passes, "traced_passes": traced.passes},
	}
	if err := rec.finish(cfg, rep.notes); err != nil {
		return nil, err
	}
	return rep, nil
}
