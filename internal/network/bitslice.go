package network

import (
	mathbits "math/bits"
	"slices"

	"shufflenet/internal/obs"
)

// Bit-sliced 0-1 enumeration: the 2^n inputs of the 0-1 principle are
// walked in blocks of 64, with block b covering masks 64b..64b+63.
// Wire w of lane j carries bit w of mask 64b+j, so the six low wires
// are block-independent lane constants and every higher wire is a
// constant 0 or all-ones word per block. One EvalBits call then settles
// 64 inputs with two bitwise ops per comparator — the kernel the
// optimal-sorting-network searches (Bundala–Závodný, Harder) run on.
//
// The exhaustive scans walk fewer blocks: the image of the program's
// first level (LoadImage). A level of k comparators maps {0,1}^n onto
// 3^k·2^(n−2k) vectors, since each comparator leaves its wires in one
// of three states, (0,0), (0,1) or (1,1) (min wire first). The level
// leaves every image vector unchanged and keeps each input's ones
// count, so an input's output is its image's: scanning the image
// settles every input, and the smallest input a failing lane stands
// for (Image.Witness) gives the smallest failing mask. LoadBlock and
// Run keep mask order, the tests' reference for the image.

// laneIndex[k] has bit j equal to bit k of j: the lane constants that
// seed wires 0..5 for every block.
var laneIndex = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// ZeroOneBlocks returns how many 64-lane blocks cover all 2^n 0-1
// masks, and the mask of valid lanes within each block (all 64 lanes
// for n >= 6; for n < 6 there is a single block whose low 2^n lanes
// are the distinct masks and the rest are duplicates to be ignored).
func ZeroOneBlocks(n int) (blocks int, laneMask uint64) {
	if n < 6 {
		return 1, uint64(1)<<(1<<uint(n)) - 1
	}
	return 1 << uint(n-6), ^uint64(0)
}

// Bit-sliced kernel metrics: EvalBits itself carries no per-call
// atomics (an atomic add would cost several percent of a ~100ns call),
// so BitBatch counts words locally and workers flush once per chunk
// via FlushMetrics. A word is one 64-lane evaluation, of a mask-order
// or an image block alike, and lanes are 64 per word: so an image scan
// adds the image blocks it evaluated, not 2^n/64, and the inputs a
// scan settled are counted by its caller (sortcheck.zeroone.masks,
// halver.epsilon.masks).
var (
	metBitsWords = obs.C("network.evalbits.words")
	metBitsLanes = obs.C("network.evalbits.lanes")
)

// BitBatch is per-worker scratch for pushing 64-lane 0-1 blocks
// through a compiled Program. It is not safe for concurrent use; give
// each worker its own (NewBitBatch is two small allocations).
type BitBatch struct {
	prog  *Program
	state []uint64
	from  int   // comparators Eval skips: the first level after LoadImage
	words int64 // 64-lane evaluations since the last FlushMetrics
}

// NewBitBatch returns scratch for evaluating 64-wide 0-1 blocks of p.
func NewBitBatch(p *Program) *BitBatch {
	return &BitBatch{prog: p, state: make([]uint64, p.n)}
}

// LoadBlock fills the lanes with the 64 masks 64*block .. 64*block+63:
// wire w of lane j is bit w of mask 64*block+j.
func (b *BitBatch) LoadBlock(block uint64) {
	n := b.prog.n
	s := b.state
	for w := 0; w < n && w < 6; w++ {
		s[w] = laneIndex[w]
	}
	for w := 6; w < n; w++ {
		s[w] = -(block >> uint(w-6) & 1) // 0 or all-ones
	}
	b.from = 0
}

// firstLevel returns how many comparators the program's first level
// has: the first level with any, since empty levels before it change
// nothing. They are pairs[0 : 2*firstLevel()].
func (p *Program) firstLevel() int {
	for _, off := range p.levelOff[1:] {
		if off > 0 {
			return int(off)
		}
	}
	return 0
}

// Image lays the image of a program's first level over 64-lane blocks
// (LoadImage). The lane wires are the wires of up to three first-level
// comparators, then idle wires (those the level leaves alone), and lane
// j carries bit i of j on the i-th lowest lane wire before the level:
// so every lane stands for inputs of its own, and the level's lane
// comparators are applied once, to the lane constants. Of a block
// index, the low bits set the block's idle wires and the base-3 digits
// above them the states of its comparators: 0 is (0,0), 1 is (0,1) and
// 2 is (1,1). Comparators are taken in order of their higher wire,
// first for the lanes, then for the digits from the lowest, so block
// order roughly follows mask order, which lets a witness search skip
// blocks early (Least). An Image is read-only: a scan builds one and
// shares it among its workers.
type Image struct {
	skip     int        // the first level's comparators
	lane     [6]uint64  // lane-wire words after the first level
	laneAt   [6]int32   // the lane wires, ascending
	lanes    int        // how many of them there are: min(n, 6)
	idle     []int32    // the block's idle wires, by bit
	comps    [][2]int32 // the block's comparators, (min, max), by digit
	blocks   int
	laneMask uint64
}

// Image returns the layout of the image of the program's first level.
func (p *Program) Image() *Image {
	k := p.firstLevel()
	comps := make([][2]int32, k)
	used := make([]bool, p.n)
	for i := range comps {
		lo, hi := p.pairs[2*i], p.pairs[2*i+1]
		comps[i] = [2]int32{lo, hi}
		used[lo], used[hi] = true, true
	}
	slices.SortFunc(comps, func(a, b [2]int32) int { return int(max(a[0], a[1]) - max(b[0], b[1])) })
	onLanes := comps[:min(k, 3)]
	im := &Image{
		skip:  k,
		comps: comps[len(onLanes):],
		idle:  make([]int32, 0, max(p.n-2*k-6, 0)),
	}
	laneAt := im.laneAt[:0]
	for _, c := range onLanes {
		laneAt = append(laneAt, c[0], c[1])
	}
	for w, u := range used {
		switch {
		case u:
		case len(laneAt) < 6:
			laneAt = append(laneAt, int32(w))
		default:
			im.idle = append(im.idle, int32(w))
		}
	}
	slices.Sort(laneAt)
	im.lanes = len(laneAt)
	im.lane = laneIndex
	for _, c := range onLanes {
		lo, hi := slices.Index(laneAt, c[0]), slices.Index(laneAt, c[1])
		a, b := laneIndex[lo], laneIndex[hi]
		im.lane[lo], im.lane[hi] = a&b, a|b
	}
	im.blocks = 1 << uint(len(im.idle))
	for range im.comps {
		im.blocks *= 3
	}
	_, im.laneMask = ZeroOneBlocks(p.n)
	return im
}

// Blocks returns how many 64-lane blocks cover the image, and the mask
// of valid lanes within each (as for ZeroOneBlocks: all 64 for n >= 6,
// the low 2^n below). The six lane wires take up to three of the
// level's comparators, then idle wires; each other comparator triples
// the blocks and each other idle wire doubles them: 243 for 16 wires
// under a full level, against 1,024 mask-order blocks.
func (im *Image) Blocks() (blocks int, laneMask uint64) {
	return im.blocks, im.laneMask
}

// Least returns the smallest 0-1 input (bit w of the mask is wire w)
// that block stands for: its lane wires 0, its idle wires as the block
// sets them, and each comparator in state (0,1) with its 1 on its
// lower-numbered wire. Every input the block stands for is at least
// Least, so a witness search skips a block whose Least is not below
// the smallest failing input it has found.
func (im *Image) Least(block uint64) uint64 {
	var x uint64
	for i, w := range im.idle {
		x |= block >> uint(i) & 1 << uint(w)
	}
	digits := block >> uint(len(im.idle))
	for _, c := range im.comps {
		d := digits % 3
		digits /= 3
		lo, hi := uint(c[0]), uint(c[1])
		switch d {
		case 1:
			x |= 1 << min(lo, hi)
		case 2:
			x |= 1<<lo | 1<<hi
		}
	}
	return x
}

// Witness returns the smallest 0-1 input that the lanes bad (a nonzero
// set of valid lanes) of block stand for. An input fails to sort iff
// its lane does, so the smallest failing input is the least Witness
// over the blocks' failing lanes. Lane j's share of an input is the
// bits of j on the lane wires in wire order, which grows with j, so
// the lowest lane of bad holds the smallest.
func (im *Image) Witness(block, bad uint64) uint64 {
	j := uint64(mathbits.TrailingZeros64(bad))
	x := im.Least(block)
	for i, w := range im.laneAt[:im.lanes] {
		x |= j >> uint(i) & 1 << uint(w)
	}
	return x
}

// LoadImage fills the lanes with block (of im.Blocks) of the image of
// the program's first level and makes the next Eval skip that level,
// which leaves every image vector unchanged. It returns the block's
// ones count, so lane j holds ones + popcount(j) ones, and how many
// 0-1 inputs each lane stands for: two for each block comparator in
// state (0,1), whose inputs (0,1) and (1,0) the level maps to it, so
// the valid lanes of all the blocks stand for the 2^n inputs exactly
// once. im must be the Image of b's program.
func (b *BitBatch) LoadImage(im *Image, block uint64) (ones int, inputs int64) {
	s := b.state
	for i, w := range im.laneAt[:im.lanes] {
		s[w] = im.lane[i]
	}
	for i, w := range im.idle {
		s[w] = -(block >> uint(i) & 1)
	}
	ones = mathbits.OnesCount64(block & (1<<uint(len(im.idle)) - 1))
	inputs = 1
	digits := block >> uint(len(im.idle))
	for _, c := range im.comps {
		d := digits % 3
		digits /= 3
		s[c[0]] = -(d >> 1)       // 1 in state (1,1)
		s[c[1]] = -((d + 1) >> 1) // 1 in states (0,1) and (1,1)
		ones += int(d)
		inputs <<= d & 1
	}
	b.from = im.skip
	return ones, inputs
}

// Eval runs the compiled program over the loaded lanes in place and
// returns the state: state[w] holds wire w's output bit for each lane.
func (b *BitBatch) Eval() []uint64 {
	b.words++
	b.prog.evalBits(b.state, b.from)
	return b.state
}

// State returns the lane words (wire-major) without evaluating.
func (b *BitBatch) State() []uint64 { return b.state }

// UnsortedLanes returns the set of lanes whose current state is not
// sorted, as a bitmask: a 0-1 output is unsorted iff some adjacent wire
// pair has a 1 above a 0, detected wordwise as state[i] &^ state[i+1].
func (b *BitBatch) UnsortedLanes() uint64 {
	var bad uint64
	s := b.state
	for i := 0; i+1 < len(s); i++ {
		bad |= s[i] &^ s[i+1]
	}
	return bad
}

// Run loads block, evaluates it, and returns the unsorted-lane mask:
// bit j set means mask 64*block+j is a 0-1 witness of non-sortedness.
func (b *BitBatch) Run(block uint64) uint64 {
	b.words++
	b.LoadBlock(block)
	b.prog.EvalBits(b.state)
	return b.UnsortedLanes()
}

// FlushMetrics publishes the words (64-lane evaluations) settled since
// the last flush to the obs registry. Checkers call it once per worker
// chunk (typically deferred), keeping the kernel loop free of atomics.
func (b *BitBatch) FlushMetrics() {
	if b.words == 0 {
		return
	}
	metBitsWords.Add(b.words)
	metBitsLanes.Add(64 * b.words)
	b.words = 0
}
