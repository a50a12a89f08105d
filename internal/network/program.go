package network

import (
	"fmt"

	"shufflenet/internal/obs"
)

// Scalar-path metrics. The bit-sliced kernel (EvalBits) is deliberately
// not counted here: one atomic per 64-lane call would cost several
// percent of its ~100ns budget, so word counts are accumulated
// non-atomically in BitBatch and flushed per worker chunk instead (see
// bitslice.go and DESIGN.md §4).
var (
	metEvalCalls    = obs.C("network.eval.calls")
	metEvalCompiles = obs.C("network.compile.count")
)

// Program is a compiled comparator network: the level structure
// flattened into a branch-predictable stream of wire pairs, plus an
// optional output relabeling (for register-model networks, whose final
// register contents are a permutation of the circuit wires).
//
// A Program is immutable after Compile and safe for concurrent use; the
// Eval* methods write only into caller-provided (or freshly allocated)
// buffers. It exists for the hot paths: exhaustive 0-1 checking,
// Monte-Carlo sweeps, and the bit-sliced kernel (EvalBits), which
// pushes 64 independent 0-1 inputs through the network at once with two
// bitwise ops per comparator.
type Program struct {
	n        int
	pairs    []int32   // flat (min, max) wire pairs, level by level
	levelOff []int32   // pairs[2*levelOff[i]:2*levelOff[i+1]] is level i
	gather   [][]int32 // output relabeling as permutation cycles; nil = identity
}

// Compilable is implemented by network representations that can be
// lowered to a compiled Program. Both *Network and *Register satisfy
// it; checkers use it to route any Evaluator they recognize onto the
// compiled (and, for 0-1 inputs, bit-sliced) kernel.
type Compilable interface {
	Compile() *Program
}

// Compile flattens a circuit-model network into a Program.
func Compile(c *Network) *Program {
	metEvalCompiles.Inc()
	p := &Program{
		n:        c.n,
		pairs:    make([]int32, 0, 2*c.Size()),
		levelOff: make([]int32, 1, c.Depth()+1),
	}
	for _, lv := range c.levels {
		for _, cm := range lv {
			p.pairs = append(p.pairs, int32(cm.Min), int32(cm.Max))
		}
		p.levelOff = append(p.levelOff, int32(len(p.pairs)/2))
	}
	return p
}

// Compile lowers the circuit to its compiled Program form.
func (c *Network) Compile() *Program { return Compile(c) }

// CompileRegister lowers a register-model network to a Program via the
// model equivalence (FromRegister): the step permutations and exchange
// ("1") elements become wire relabelings, and the final placement of
// wires in registers becomes the Program's output gather, so that
//
//	prog.Eval(x) == reg.Eval(x)  for all inputs x.
func CompileRegister(r *Register) *Program {
	circ, place := FromRegister(r)
	p := Compile(circ)
	// reg.Eval(x)[i] == circ.Eval(x)[place[i]]: gather along the cycles
	// of place so no scratch buffer is needed at eval time.
	for _, cy := range place.Cycles() {
		if len(cy) < 2 {
			continue
		}
		own := make([]int32, len(cy))
		for i, w := range cy {
			own[i] = int32(w)
		}
		p.gather = append(p.gather, own)
	}
	return p
}

// Compile lowers the register network to its compiled Program form.
func (r *Register) Compile() *Program { return CompileRegister(r) }

// Wires returns the number of wires.
func (p *Program) Wires() int { return p.n }

// Depth returns the number of levels of the source network.
func (p *Program) Depth() int { return len(p.levelOff) - 1 }

// Size returns the number of comparators.
func (p *Program) Size() int { return len(p.pairs) / 2 }

// Eval runs the program on input, returning a fresh output slice.
func (p *Program) Eval(input []int) []int {
	out := make([]int, p.n)
	p.EvalInto(out, input)
	return out
}

// EvalInto runs the program on input, writing the output into dst
// (length n) without allocating. dst and input may be the same slice.
func (p *Program) EvalInto(dst, input []int) {
	if len(input) != p.n || len(dst) != p.n {
		panic(fmt.Sprintf("network.Program.EvalInto: dst/input lengths %d/%d != %d wires", len(dst), len(input), p.n))
	}
	metEvalCalls.Inc()
	copy(dst, input)
	pairs := p.pairs
	for i := 0; i+1 < len(pairs); i += 2 {
		lo, hi := pairs[i], pairs[i+1]
		a, b := dst[lo], dst[hi]
		if a > b {
			dst[lo], dst[hi] = b, a
		}
	}
	applyCycles(p.gather, dst)
}

// EvalBits runs the program on 64 independent 0-1 inputs at once,
// in place: state[w] holds, in bit (lane) j, the value of wire w in the
// j-th input. A comparator (lo, hi) is branch-free — the smaller value
// is AND, the larger OR:
//
//	state[lo], state[hi] = state[lo]&state[hi], state[lo]|state[hi]
//
// This is sound for 0-1 values by the same monotone-threshold argument
// as the 0-1 principle itself, and it is what makes exhaustive
// verification run two orders of magnitude faster than scalar Eval.
func (p *Program) EvalBits(state []uint64) { p.evalBits(state, 0) }

// evalBits is EvalBits from comparator from on: the comparators before
// it are skipped, and the output gather is applied as usual.
func (p *Program) evalBits(state []uint64, from int) {
	if len(state) != p.n {
		panic(fmt.Sprintf("network.Program.EvalBits: state length %d != %d wires", len(state), p.n))
	}
	pairs := p.pairs[2*from:]
	for i := 0; i+1 < len(pairs); i += 2 {
		lo, hi := pairs[i], pairs[i+1]
		a, b := state[lo], state[hi]
		state[lo] = a & b
		state[hi] = a | b
	}
	applyCycles(p.gather, state)
}

// SortsZeroOneInput reports whether the network sorts the single 0-1
// input in (length n, nonzero entries read as 1), using the bit-sliced
// kernel with the input broadcast across all lanes. It works for any
// width, unlike mask-based enumeration which needs n <= 64.
func (p *Program) SortsZeroOneInput(in []int) bool {
	if len(in) != p.n {
		panic(fmt.Sprintf("network.Program.SortsZeroOneInput: input length %d != %d wires", len(in), p.n))
	}
	state := make([]uint64, p.n)
	for w, v := range in {
		if v != 0 {
			state[w] = ^uint64(0)
		}
	}
	p.EvalBits(state)
	var bad uint64
	for i := 0; i+1 < len(state); i++ {
		bad |= state[i] &^ state[i+1]
	}
	return bad == 0
}

// Levels returns the compiled level structure as (min, max) wire-index
// pairs, one slice per level. The result is freshly allocated; callers
// may mutate it. It exposes the flat comparator stream to consumers
// that re-emit the program in another form (internal/netgen compiles
// it to branchless Go source).
func (p *Program) Levels() [][][2]int {
	out := make([][][2]int, p.Depth())
	for l := range out {
		lo, hi := p.levelOff[l], p.levelOff[l+1]
		lv := make([][2]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			lv = append(lv, [2]int{int(p.pairs[2*i]), int(p.pairs[2*i+1])})
		}
		out[l] = lv
	}
	return out
}

// OutputPerm returns the output relabeling as a permutation g with
// out[i] = in[g[i]] applied after the comparator stream — the identity
// for circuit-model programs, and the final register placement for
// register-model ones.
func (p *Program) OutputPerm() []int {
	g := make([]int, p.n)
	for i := range g {
		g[i] = i
	}
	for _, cy := range p.gather {
		for i := range cy {
			g[cy[i]] = int(cy[(i+1)%len(cy)])
		}
	}
	return g
}

// applyCycles applies the output relabeling out[r] = in[gather(r)]
// in place by walking each cycle (r0, r1=g(r0), r2=g(r1), ...).
func applyCycles[T any](cycles [][]int32, a []T) {
	for _, cy := range cycles {
		tmp := a[cy[0]]
		for i := 0; i < len(cy)-1; i++ {
			a[cy[i]] = a[cy[i+1]]
		}
		a[cy[len(cy)-1]] = tmp
	}
}

// compile-time interface checks
var (
	_ Compilable = (*Network)(nil)
	_ Compilable = (*Register)(nil)
)
