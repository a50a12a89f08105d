// Package network implements the two comparator-network models of
// Plaxton & Suel (SPAA 1992), Section 1:
//
//   - the circuit model: an acyclic circuit of 2-input comparator
//     elements arranged in levels on n wires (type Network), and
//   - the register model: a sequence of steps (Π_i, x⃗_i) where Π_i
//     permutes the n register contents and x⃗_i applies one of
//     {+, −, 0, 1} to each adjacent register pair (type Register).
//
// The two models are equivalent (the paper states this; Convert and
// ToRegister realize the equivalence constructively and the tests
// verify it by exhaustive and randomized evaluation).
//
// Evaluation is defined for integer inputs. EvalTrace additionally
// records every comparison performed, which is what the lower-bound
// machinery (Definition 3.6: collision) observes.
package network

import (
	"context"
	"fmt"

	"shufflenet/internal/par"
)

// Comparator is a single comparator element between two wires.
// After the comparator fires, the smaller value is on wire Min and the
// larger on wire Max. Min and Max are unordered as wire indices: a
// "decreasing" comparator simply has Max < Min.
type Comparator struct {
	Min int // wire receiving the smaller value
	Max int // wire receiving the larger value
}

// Level is one level of comparators; each wire may appear at most once.
type Level []Comparator

// Network is a comparator network in the circuit model: a sequence of
// levels on n wires. The zero value is an empty network on 0 wires;
// use New to create one.
type Network struct {
	n      int
	levels []Level
}

// New returns an empty comparator network on n wires (n >= 1).
func New(n int) *Network {
	if n < 1 {
		panic(fmt.Sprintf("network.New: n = %d < 1", n))
	}
	return &Network{n: n}
}

// Wires returns the number of wires.
func (c *Network) Wires() int { return c.n }

// Depth returns the number of levels.
func (c *Network) Depth() int { return len(c.levels) }

// Size returns the total number of comparator elements.
func (c *Network) Size() int {
	s := 0
	for _, lv := range c.levels {
		s += len(lv)
	}
	return s
}

// Levels returns the underlying levels. The caller must not modify the
// result.
func (c *Network) Levels() []Level { return c.levels }

// Level returns level i.
func (c *Network) Level(i int) Level { return c.levels[i] }

// AddLevel appends a level of comparators. It panics on the first
// fault checkLevel finds: a comparator that connects a wire to itself,
// a wire out of range, or a wire used twice within the level. An empty
// level is allowed (a pass-through stage).
func (c *Network) AddLevel(lv Level) *Network {
	switch f, w := checkLevel(lv, c.n); f {
	case faultSelfLoop:
		panic(fmt.Sprintf("network.AddLevel: comparator connects wire %d to itself", w))
	case faultRange:
		panic(fmt.Sprintf("network.AddLevel: wire %d out of range [0,%d)", w, c.n))
	case faultTwice:
		panic(fmt.Sprintf("network.AddLevel: wire %d used twice in one level", w))
	}
	own := make(Level, len(lv))
	copy(own, lv)
	c.levels = append(c.levels, own)
	return c
}

// AddComparators is shorthand for AddLevel over (min, max) pairs given
// as a flat list: AddComparators(a0, b0, a1, b1, ...).
func (c *Network) AddComparators(pairs ...int) *Network {
	if len(pairs)%2 != 0 {
		panic("network.AddComparators: odd number of wire indices")
	}
	lv := make(Level, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		lv = append(lv, Comparator{Min: pairs[i], Max: pairs[i+1]})
	}
	return c.AddLevel(lv)
}

// Append concatenates the levels of other (serial composition with the
// identity wire mapping). other must have the same number of wires.
func (c *Network) Append(other *Network) *Network {
	if other.n != c.n {
		panic(fmt.Sprintf("network.Append: wire counts differ (%d vs %d)", c.n, other.n))
	}
	for _, lv := range other.levels {
		c.AddLevel(lv)
	}
	return c
}

// Clone returns a deep copy of the network.
func (c *Network) Clone() *Network {
	out := New(c.n)
	for _, lv := range c.levels {
		out.AddLevel(lv)
	}
	return out
}

// Truncate returns a copy consisting of the first depth levels. depth
// must be in [0, Depth()].
func (c *Network) Truncate(depth int) *Network {
	if depth < 0 || depth > len(c.levels) {
		panic(fmt.Sprintf("network.Truncate: depth %d out of range [0,%d]", depth, len(c.levels)))
	}
	out := New(c.n)
	for _, lv := range c.levels[:depth] {
		out.AddLevel(lv)
	}
	return out
}

// Slice returns a copy consisting of levels [lo, hi).
func (c *Network) Slice(lo, hi int) *Network {
	if lo < 0 || hi > len(c.levels) || lo > hi {
		panic(fmt.Sprintf("network.Slice: [%d,%d) out of range [0,%d]", lo, hi, len(c.levels)))
	}
	out := New(c.n)
	for _, lv := range c.levels[lo:hi] {
		out.AddLevel(lv)
	}
	return out
}

// Parallel returns the parallel composition of a and b (the paper's
// Λ₀ ⊕ Λ₁): a network on a.Wires()+b.Wires() wires in which b's wires
// are renumbered to start at a.Wires(). Levels are aligned index-wise;
// if one operand is shallower, its missing levels are empty.
func Parallel(a, b *Network) *Network {
	out := New(a.n + b.n)
	depth := a.Depth()
	if b.Depth() > depth {
		depth = b.Depth()
	}
	for i := 0; i < depth; i++ {
		var lv Level
		if i < a.Depth() {
			lv = append(lv, a.levels[i]...)
		}
		if i < b.Depth() {
			for _, cm := range b.levels[i] {
				lv = append(lv, Comparator{Min: cm.Min + a.n, Max: cm.Max + a.n})
			}
		}
		out.AddLevel(lv)
	}
	return out
}

// Eval runs the network on input (length n), returning a fresh output
// slice. The input is not modified.
func (c *Network) Eval(input []int) []int {
	out := c.checkedCopy(input)
	for _, lv := range c.levels {
		applyLevel(lv, out)
	}
	return out
}

// EvalInPlace runs the network on data, modifying it.
func (c *Network) EvalInPlace(data []int) {
	if len(data) != c.n {
		panic(fmt.Sprintf("network.Eval: input length %d != %d wires", len(data), c.n))
	}
	for _, lv := range c.levels {
		applyLevel(lv, data)
	}
}

// Comparison records one comparison performed during EvalTrace: the two
// values that met at a comparator (A carries the value that was on the
// Min wire before the exchange decision — i.e. the pair is unordered in
// value; use Lo/Hi for the sorted pair) and the level at which they met.
type Comparison struct {
	A, B  int // the two values compared, in pre-comparison wire order (Min wire, Max wire)
	Level int
}

// Lo returns the smaller of the compared values.
func (cp Comparison) Lo() int {
	if cp.A < cp.B {
		return cp.A
	}
	return cp.B
}

// Hi returns the larger of the compared values.
func (cp Comparison) Hi() int {
	if cp.A > cp.B {
		return cp.A
	}
	return cp.B
}

// EvalTrace runs the network on input and additionally returns every
// comparison performed, in level order. This is the observable the
// paper's collision arguments are about: input values v, w "collide"
// (Definition 3.6) iff a Comparison with {A,B} = {v,w} appears.
func (c *Network) EvalTrace(input []int) ([]int, []Comparison) {
	out := c.checkedCopy(input)
	trace := make([]Comparison, 0, c.Size())
	for li, lv := range c.levels {
		for _, cm := range lv {
			a, b := out[cm.Min], out[cm.Max]
			trace = append(trace, Comparison{A: a, B: b, Level: li})
			if a > b {
				out[cm.Min], out[cm.Max] = b, a
			}
		}
	}
	return out, trace
}

// Compared reports whether the values v and w are compared when the
// network runs on input.
func (c *Network) Compared(input []int, v, w int) bool {
	out := c.checkedCopy(input)
	for _, lv := range c.levels {
		for _, cm := range lv {
			a, b := out[cm.Min], out[cm.Max]
			if (a == v && b == w) || (a == w && b == v) {
				return true
			}
			if a > b {
				out[cm.Min], out[cm.Max] = b, a
			}
		}
	}
	return false
}

// EvalParallel evaluates the network level-synchronously, splitting each
// level's comparators across workers goroutines (0 = GOMAXPROCS).
// Distinct comparators in a level touch disjoint wires, so the level is
// data-parallel. Levels narrower than par.DefaultGrain comparators run
// sequentially, since below it scheduling costs more than the
// comparisons do — a level holds at most n/2 comparators, so the
// parallel path only engages for networks of at least
// 2·par.DefaultGrain = 4096 wires, and EvalParallel degenerates to a slightly costlier Eval below
// that. Benchmarked against Eval in the ablation benches.
func (c *Network) EvalParallel(input []int, workers int) []int {
	out := c.checkedCopy(input)
	for _, lv := range c.levels {
		lv := lv
		par.ForEach(context.Background(), len(lv), workers, par.DefaultGrain, func(i int) {
			cm := lv[i]
			if out[cm.Min] > out[cm.Max] {
				out[cm.Min], out[cm.Max] = out[cm.Max], out[cm.Min]
			}
		})
	}
	return out
}

// Validate checks structural invariants (wire ranges, per-level wire
// uniqueness) and returns an error describing the first violation.
// Networks built through AddLevel are always valid; Validate exists for
// networks reconstructed from serialized form.
func (c *Network) Validate() error {
	if c.n < 1 {
		return fmt.Errorf("network: %d wires", c.n)
	}
	for li, lv := range c.levels {
		if err := levelError(li, lv, c.n); err != nil {
			return err
		}
	}
	return nil
}

// levelError reports checkLevel's verdict on level li in Validate's
// words; ReadText prefixes it with the line.
func levelError(li int, lv Level, n int) error {
	switch f, w := checkLevel(lv, n); f {
	case faultSelfLoop:
		return fmt.Errorf("level %d: comparator connects wire %d to itself", li, w)
	case faultRange:
		return fmt.Errorf("level %d: wire %d out of range [0,%d)", li, w, n)
	case faultTwice:
		return fmt.Errorf("level %d: wire %d used twice", li, w)
	}
	return nil
}

// levelFault names the first fault checkLevel finds in a level.
type levelFault uint8

const (
	levelOK       levelFault = iota
	faultSelfLoop            // a comparator connects a wire to itself
	faultRange               // a wire outside [0, n)
	faultTwice               // a wire used by two comparators
)

// checkLevel is the one level checker behind AddLevel, Validate and
// ReadText. It scans lv as a sequence of wires — per comparator a
// self-loop test, then for Min and then Max a range test followed by a
// reuse test — and returns the first fault with the wire it names.
//
// Up to 256 wires the wires seen so far are a bitset on the stack, and
// the check allocates nothing. Above that they are a map sized to the
// level, never to n, because a header of a few bytes can declare any
// width ("wires 100000000000000000").
func checkLevel(lv Level, n int) (levelFault, int) {
	var small [4]uint64
	var wide map[int]bool
	if n > 64*len(small) {
		wide = make(map[int]bool, 2*len(lv))
	}
	for _, cm := range lv {
		if cm.Min == cm.Max {
			return faultSelfLoop, cm.Min
		}
		for _, w := range [2]int{cm.Min, cm.Max} {
			if uint(w) >= uint(n) {
				return faultRange, w
			}
			if wide != nil {
				if wide[w] {
					return faultTwice, w
				}
				wide[w] = true
				continue
			}
			bit := uint64(1) << (uint(w) & 63)
			if small[w>>6]&bit != 0 {
				return faultTwice, w
			}
			small[w>>6] |= bit
		}
	}
	return levelOK, 0
}

func (c *Network) checkedCopy(input []int) []int {
	if len(input) != c.n {
		panic(fmt.Sprintf("network.Eval: input length %d != %d wires", len(input), c.n))
	}
	out := make([]int, c.n)
	copy(out, input)
	return out
}

func applyLevel(lv Level, data []int) {
	for _, cm := range lv {
		if data[cm.Min] > data[cm.Max] {
			data[cm.Min], data[cm.Max] = data[cm.Max], data[cm.Min]
		}
	}
}
