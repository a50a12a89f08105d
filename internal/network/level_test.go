package network

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// hugeWidth is a declared width no circuit can fill: 10^17 wires, the
// width a 30-byte body can declare. It is a variable so that the file
// compiles where int has 32 bits; tests that use it skip there.
var hugeWidth int64 = 100000000000000000

// faultWidths are the widths the level checker is pinned at: both
// sides of the stack bitset's 64-bit words and of its 256-wire limit,
// and two widths nothing sized to n may serve.
func faultWidths(t *testing.T) []int {
	ws := []int{2, 64, 65, 256, 257, 1 << 20}
	if strconv.IntSize == 64 {
		ws = append(ws, int(hugeWidth))
	} else {
		t.Log("int has 32 bits: the 10^17-wire rows are skipped")
	}
	return ws
}

// topLevel is a valid level of k comparators on the top 2k wires of an
// n-wire circuit, alternating in direction.
func topLevel(n, k int) Level {
	lv := make(Level, k)
	for i := range lv {
		hi, lo := n-1-2*i, n-2-2*i
		if i%2 == 0 {
			lv[i] = Comparator{Min: hi, Max: lo}
		} else {
			lv[i] = Comparator{Min: lo, Max: hi}
		}
	}
	return lv
}

// levelFaultCase is one faulty level and the fault text every entry
// point must report for it, without its entry point's prefix.
type levelFaultCase struct {
	name string
	n    int
	lv   Level
	want string // Validate's text, without "level 0: "
	// addLevel is AddLevel's panic text, without "network.AddLevel: ".
	addLevel string
}

// levelFaultCases builds, at every width, a short and a long valid
// level (one comparator, and min(n/2, 2^15)) and appends each fault to
// it: a self-loop, a negative wire, a wire equal to n, and a wire the
// level already used.
// A second, different fault follows each one, so the rows also pin
// that the first fault in scan order is the one reported.
func levelFaultCases(t *testing.T) []levelFaultCase {
	var cases []levelFaultCase
	for _, n := range faultWidths(t) {
		ks := []int{1}
		if full := min(n/2, 1<<15); full > 1 {
			ks = append(ks, full)
		}
		for _, k := range ks {
			base := topLevel(n, k)
			used := base[0].Max // a wire base uses, below n-1
			add := func(fault string, extra []Comparator, want, addLevel string) {
				lv := append(append(Level{}, base...), extra...)
				cases = append(cases, levelFaultCase{
					name: fmt.Sprintf("n=%d/k=%d/%s", n, k, fault),
					n:    n, lv: lv, want: want, addLevel: addLevel,
				})
			}
			selfLoop := fmt.Sprintf("comparator connects wire %d to itself", n-1)
			add("self-loop", []Comparator{{Min: n - 1, Max: n - 1}, {Min: -1, Max: 0}}, selfLoop, selfLoop)
			neg := fmt.Sprintf("wire -1 out of range [0,%d)", n)
			add("negative", []Comparator{{Min: -1, Max: used}, {Min: 0, Max: 0}}, neg, neg)
			high := fmt.Sprintf("wire %d out of range [0,%d)", n, n)
			add("wire=n", []Comparator{{Min: n, Max: 0}, {Min: 1, Max: 1}}, high, high)
			add("used-twice", []Comparator{{Min: used, Max: n - 1}, {Min: n, Max: n}},
				fmt.Sprintf("wire %d used twice", used),
				fmt.Sprintf("wire %d used twice in one level", used))
		}
	}
	// The first reuse in scan order is neither the smallest repeated
	// wire nor the first repeated comparator's Min.
	for _, n := range faultWidths(t)[1:] {
		lv := Level{{Min: 10, Max: 20}, {Min: 30, Max: 40}, {Min: 5, Max: 40}, {Min: 20, Max: 7}}
		cases = append(cases, levelFaultCase{
			name: fmt.Sprintf("n=%d/first-reuse", n), n: n, lv: lv,
			want: "wire 40 used twice", addLevel: "wire 40 used twice in one level",
		})
	}
	return cases
}

// TestLevelFaults pins what AddLevel, Validate and ReadText report for
// each faulty level: the first fault in scan order, in the text each
// entry point has always used. The one change is AddLevel on a
// self-loop, which reported the loop's second wire as "used twice"
// before the checker tested self-loops first, as Validate does.
func TestLevelFaults(t *testing.T) {
	for _, tc := range levelFaultCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			c := &Network{n: tc.n, levels: []Level{tc.lv}}
			if err := c.Validate(); err == nil || err.Error() != "level 0: "+tc.want {
				t.Errorf("Validate: %v, want %q", err, "level 0: "+tc.want)
			}

			var text strings.Builder
			if err := c.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			_, err := ReadText(strings.NewReader(text.String()))
			if want := "line 2: level 0: " + tc.want; err == nil || err.Error() != want {
				t.Errorf("ReadText: %v, want %q", err, want)
			}

			want := "network.AddLevel: " + tc.addLevel
			func() {
				defer func() {
					if got := recover(); got != want {
						t.Errorf("AddLevel panicked with %v, want %q", got, want)
					}
				}()
				New(tc.n).AddLevel(tc.lv)
			}()
		})
	}
}

// TestLevelsAccepted: the same widths and level shapes without a fault
// pass all three entry points, and AddLevel keeps its own copy.
func TestLevelsAccepted(t *testing.T) {
	for _, n := range faultWidths(t) {
		for _, k := range []int{0, 1, min(n/2, 1<<15)} {
			lv := topLevel(n, k)
			c := New(n).AddLevel(lv)
			if err := c.Validate(); err != nil {
				t.Errorf("n=%d k=%d: Validate: %v", n, k, err)
			}
			var text strings.Builder
			if err := c.WriteText(&text); err != nil {
				t.Fatal(err)
			}
			back, err := ReadText(strings.NewReader(text.String()))
			if err != nil || !back.Equal(c) {
				t.Errorf("n=%d k=%d: ReadText: %v", n, k, err)
			}
			if k > 0 {
				lv[0].Min, lv[0].Max = lv[0].Max, lv[0].Min
				if c.Level(0)[0] == lv[0] {
					t.Errorf("n=%d k=%d: AddLevel aliased its argument", n, k)
				}
			}
		}
	}
}

// TestCheckLevelAllocs: the checker allocates nothing up to 256 wires.
// Above that it allocates only its map, whose size follows the level
// and not the declared width: a bitset or slice sized to n would cost
// 128 KiB or more at 2^20 wires and could not be made at 10^17.
func TestCheckLevelAllocs(t *testing.T) {
	for _, r := range []struct {
		name string
		n, k int
	}{{"n=11/full", 11, 5}, {"n=256/full", 256, 128}} {
		lv := topLevel(r.n, r.k)
		got := testing.AllocsPerRun(20, func() {
			if f, w := checkLevel(lv, r.n); f != levelOK {
				t.Fatalf("%s: fault %d at wire %d", r.name, f, w)
			}
		})
		if got != 0 {
			t.Errorf("%s: %v allocs per check, want 0", r.name, got)
		}
	}
	const runs = 20
	for _, n := range faultWidths(t)[4:] {
		for _, k := range []int{1, 32, 1 << 10} {
			if 2*k > n {
				continue
			}
			lv := topLevel(n, k)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if f, w := checkLevel(lv, n); f != levelOK {
					t.Fatalf("n=%d k=%d: fault %d at wire %d", n, k, f, w)
				}
			}
			runtime.ReadMemStats(&after)
			perCheck := (after.TotalAlloc - before.TotalAlloc) / runs
			if limit := uint64(1024 + 128*k); perCheck > limit {
				t.Errorf("n=%d k=%d: %d bytes per check, want at most %d", n, k, perCheck, limit)
			}
		}
	}
}
