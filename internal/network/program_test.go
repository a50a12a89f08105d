package network

import (
	mathbits "math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// These tests reuse randomNetwork (network_test.go) and randomRegister
// (register_test.go) as structure generators.

func TestCompileMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(30)
		c := randomNetwork(n, 1+rng.Intn(8), rng)
		p := c.Compile()
		if p.Wires() != c.Wires() || p.Depth() != c.Depth() || p.Size() != c.Size() {
			t.Fatalf("compiled shape %d/%d/%d != network %d/%d/%d",
				p.Wires(), p.Depth(), p.Size(), c.Wires(), c.Depth(), c.Size())
		}
		in := make([]int, n)
		for i := range in {
			in[i] = rng.Intn(2 * n)
		}
		want := c.Eval(in)
		got := p.Eval(in)
		buf := make([]int, n)
		p.EvalInto(buf, in)
		for i := range want {
			if got[i] != want[i] || buf[i] != want[i] {
				t.Fatalf("n=%d trial=%d: Eval/EvalInto mismatch at wire %d: %v / %v vs %v",
					n, trial, i, got, buf, want)
			}
		}
	}
}

func TestCompileRegisterMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 2 * (1 + rng.Intn(8))
		r := randomRegister(n, 1+rng.Intn(8), rng)
		p := r.Compile()
		in := make([]int, n)
		for i := range in {
			in[i] = rng.Intn(2 * n)
		}
		want := r.Eval(in)
		got := p.Eval(in)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d trial=%d: register program mismatch at %d: %v vs %v",
					n, trial, i, got, want)
			}
		}
	}
}

func TestEvalIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := randomNetwork(12, 6, rng)
	p := c.Compile()
	in := rng.Perm(12)
	want := c.Eval(in)
	p.EvalInto(in, in) // dst == input must be allowed
	for i := range want {
		if in[i] != want[i] {
			t.Fatalf("aliased EvalInto differs at %d: %v vs %v", i, in, want)
		}
	}
}

// TestEvalBitsMatchesScalar checks every lane of EvalBits against the
// scalar evaluation of the corresponding 0-1 input, for circuit and
// register programs, across random blocks.
func TestEvalBitsMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n := 2 * (1 + rng.Intn(10))
		var p *Program
		var ev interface{ Eval([]int) []int }
		if trial%2 == 0 {
			c := randomNetwork(n, 1+rng.Intn(6), rng)
			p, ev = c.Compile(), c
		} else {
			r := randomRegister(n, 1+rng.Intn(6), rng)
			p, ev = r.Compile(), r
		}
		blocks, laneMask := ZeroOneBlocks(n)
		bb := NewBitBatch(p)
		for rep := 0; rep < 4; rep++ {
			block := uint64(rng.Intn(blocks))
			bb.LoadBlock(block)
			out := bb.Eval()
			for j := 0; j < 64; j++ {
				if laneMask>>uint(j)&1 == 0 {
					continue
				}
				mask := block*64 + uint64(j)
				in := make([]int, n)
				for w := 0; w < n; w++ {
					in[w] = int(mask >> uint(w) & 1)
				}
				want := ev.Eval(in)
				for w := 0; w < n; w++ {
					if got := int(out[w] >> uint(j) & 1); got != want[w] {
						t.Fatalf("n=%d block=%d lane=%d wire=%d: bit %d != scalar %d",
							n, block, j, w, got, want[w])
					}
				}
			}
		}
	}
}

func TestUnsortedLanesMatchesIsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(16)
		c := randomNetwork(n, 1+rng.Intn(5), rng)
		p := c.Compile()
		blocks, laneMask := ZeroOneBlocks(n)
		bb := NewBitBatch(p)
		block := uint64(rng.Intn(blocks))
		bad := bb.Run(block) & laneMask
		for j := 0; j < 64; j++ {
			if laneMask>>uint(j)&1 == 0 {
				continue
			}
			mask := block*64 + uint64(j)
			in := make([]int, n)
			for w := 0; w < n; w++ {
				in[w] = int(mask >> uint(w) & 1)
			}
			out := c.Eval(in)
			sorted := true
			for i := 1; i < n; i++ {
				if out[i-1] > out[i] {
					sorted = false
				}
			}
			if gotBad := bad>>uint(j)&1 == 1; gotBad == sorted {
				t.Fatalf("n=%d mask=%d: UnsortedLanes says bad=%v, scalar sorted=%v",
					n, mask, gotBad, sorted)
			}
		}
	}
}

func TestLoadBlockLaneConstants(t *testing.T) {
	c := New(10) // no comparators: state is the raw input lanes
	bb := NewBitBatch(c.Compile())
	for _, block := range []uint64{0, 1, 7, 15} {
		bb.LoadBlock(block)
		s := bb.State()
		for j := 0; j < 64; j++ {
			mask := block*64 + uint64(j)
			for w := 0; w < 10; w++ {
				if got, want := s[w]>>uint(j)&1, mask>>uint(w)&1; got != want {
					t.Fatalf("block %d lane %d wire %d: loaded %d want %d", block, j, w, got, want)
				}
			}
		}
	}
}

func TestZeroOneBlocks(t *testing.T) {
	cases := []struct {
		n      int
		blocks int
		mask   uint64
	}{
		{1, 1, 0x3},
		{3, 1, 0xFF},
		{5, 1, 0xFFFFFFFF},
		{6, 1, ^uint64(0)},
		{7, 2, ^uint64(0)},
		{16, 1 << 10, ^uint64(0)},
	}
	for _, tc := range cases {
		blocks, mask := ZeroOneBlocks(tc.n)
		if blocks != tc.blocks || mask != tc.mask {
			t.Errorf("ZeroOneBlocks(%d) = (%d, %#x), want (%d, %#x)",
				tc.n, blocks, mask, tc.blocks, tc.mask)
		}
	}
}

// TestLoadImageCoversInputs: the image blocks' valid lanes, each
// weighted by the inputs LoadImage says it stands for, are the first
// level's image with the multiplicity the level maps onto each vector;
// every lane carries the ones count LoadImage reports; Eval from the
// image equals the whole program on it; and each lane's Witness is the
// smallest input that it stands for (that the level maps onto its
// vector and that agrees with it on the lane wires), never below its
// block's Least, and the Witness of a set of lanes is their least. Circuits (some behind empty levels) and register
// programs, whose output gather Eval must still apply, at every width
// up to 12.
func TestLoadImageCoversInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		var p *Program
		switch {
		case trial%3 == 2 && n >= 2:
			p = randomRegister(n&^1, 1+rng.Intn(4), rng).Compile()
			n &^= 1
		case trial%3 == 1:
			c := New(n)
			for i := rng.Intn(3); i > 0; i-- {
				c.AddLevel(nil)
			}
			p = c.Append(randomNetwork(n, rng.Intn(4), rng)).Compile()
		default:
			p = randomNetwork(n, rng.Intn(5), rng).Compile()
		}
		k := p.firstLevel()
		image := func(x uint64) uint64 {
			for i := 0; i < 2*k; i += 2 {
				lo, hi := uint(p.pairs[i]), uint(p.pairs[i+1])
				if x>>lo&1 == 1 && x>>hi&1 == 0 {
					x ^= 1<<lo | 1<<hi
				}
			}
			return x
		}
		want := map[uint64]int64{}
		for x := uint64(0); x < 1<<uint(n); x++ {
			want[image(x)]++
		}
		got := map[uint64]int64{}
		im := p.Image()
		var laneWires uint64
		for _, w := range im.laneAt[:im.lanes] {
			laneWires |= 1 << uint(w)
		}
		smallest := map[[2]uint64]uint64{} // (image, lane wires) -> least input
		for x := uint64(1<<uint(n)) - 1; x < 1<<uint(n); x-- {
			smallest[[2]uint64{image(x), x & laneWires}] = x
		}
		blocks, laneMask := im.Blocks()
		bb := NewBitBatch(p)
		full := make([]uint64, n)
		for b := 0; b < blocks; b++ {
			ones, inputs := bb.LoadImage(im, uint64(b))
			copy(full, bb.State())
			p.EvalBits(full)
			out := bb.Eval()
			for j := uint(0); j < 64; j++ {
				if laneMask>>j&1 == 0 {
					continue
				}
				var v uint64
				for w := 0; w < n; w++ {
					v |= (full[w] ^ out[w]) >> j & 1 << uint(w)
				}
				if v != 0 {
					t.Fatalf("trial %d n=%d block %d lane %d: Eval from the image differs from the program", trial, n, b, j)
				}
			}
			bb.LoadImage(im, uint64(b))
			s := bb.State()
			var leastOf [64]uint64
			for j := uint(0); j < 64; j++ {
				if laneMask>>j&1 == 0 {
					continue
				}
				var v uint64
				for w := 0; w < n; w++ {
					v |= s[w] >> j & 1 << uint(w)
				}
				if c := mathbits.OnesCount64(v); c != ones+mathbits.OnesCount(j) {
					t.Fatalf("trial %d n=%d block %d lane %d: %d ones, LoadImage says %d + %d", trial, n, b, j, c, ones, mathbits.OnesCount(j))
				}
				got[v] += inputs
				var lane uint64 // lane j's own input on the lane wires
				for i, w := range im.laneAt[:im.lanes] {
					lane |= uint64(j) >> uint(i) & 1 << uint(w)
				}
				least := smallest[[2]uint64{v, lane}]
				if w := im.Witness(uint64(b), 1<<j); w != least || im.Least(uint64(b)) > w {
					t.Fatalf("trial %d n=%d block %d lane %d: Witness %#x, Least %#x, want %#x", trial, n, b, j, w, im.Least(uint64(b)), least)
				}
				leastOf[j] = least
			}
			suffix := ^uint64(0) // the least input lanes j.. stand for
			for j := 63; j >= 0; j-- {
				if laneMask>>uint(j)&1 == 0 {
					continue
				}
				suffix = min(suffix, leastOf[j])
				if w := im.Witness(uint64(b), laneMask>>uint(j)<<uint(j)); w != suffix {
					t.Fatalf("trial %d n=%d block %d: Witness of lanes %d.. %#x, want %#x", trial, n, b, j, w, suffix)
				}
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d n=%d k=%d (%d blocks): image weights\n%v\nwant\n%v", trial, n, k, blocks, got, want)
		}
	}
}

func TestImageBlocks(t *testing.T) {
	full := func(n int) *Program {
		c := New(n)
		lv := Level{}
		for i := 0; i+1 < n; i += 2 {
			lv = append(lv, Comparator{Min: i, Max: i + 1})
		}
		return c.AddLevel(lv).Compile()
	}
	cases := []struct {
		name   string
		p      *Program
		blocks int
		mask   uint64
	}{
		{"n=1", New(1).Compile(), 1, 0x3},
		{"n=4 full", full(4), 1, 0xFFFF},
		{"n=16 no levels", New(16).Compile(), 1 << 10, ^uint64(0)},
		{"n=16 full", full(16), 243, ^uint64(0)},
		{"n=16 one comparator", New(16).AddComparators(3, 9).Compile(), 1 << 10, ^uint64(0)},
		{"n=16 four comparators", New(16).AddComparators(0, 1, 2, 3, 4, 5, 6, 7).Compile(), 3 << 8, ^uint64(0)},
		{"n=28 full", full(28), 177147, ^uint64(0)},
	}
	for _, tc := range cases {
		blocks, mask := tc.p.Image().Blocks()
		if blocks != tc.blocks || mask != tc.mask {
			t.Errorf("%s: Image().Blocks() = (%d, %#x), want (%d, %#x)", tc.name, blocks, mask, tc.blocks, tc.mask)
		}
	}
}

func TestSortsZeroOneInput(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(20)
		c := randomNetwork(n, 1+rng.Intn(6), rng)
		p := c.Compile()
		in := make([]int, n)
		for i := range in {
			in[i] = rng.Intn(2)
		}
		out := c.Eval(in)
		sorted := true
		for i := 1; i < n; i++ {
			if out[i-1] > out[i] {
				sorted = false
			}
		}
		if got := p.SortsZeroOneInput(in); got != sorted {
			t.Fatalf("n=%d in=%v: SortsZeroOneInput=%v, scalar=%v", n, in, got, sorted)
		}
	}
}

func TestProgramGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	p := New(4).AddComparators(0, 1).Compile()
	mustPanic("EvalInto short dst", func() { p.EvalInto(make([]int, 3), make([]int, 4)) })
	mustPanic("EvalInto short input", func() { p.EvalInto(make([]int, 4), make([]int, 3)) })
	mustPanic("EvalBits wrong width", func() { p.EvalBits(make([]uint64, 3)) })
	mustPanic("SortsZeroOneInput wrong width", func() { p.SortsZeroOneInput(make([]int, 3)) })
}
