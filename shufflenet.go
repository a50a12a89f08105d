// Package shufflenet is an executable laboratory for
//
//	C. G. Plaxton, T. Suel: "A Lower Bound for Sorting Networks Based
//	on the Shuffle Permutation", SPAA 1992,
//
// which proves that every n-input sorting network whose inter-level
// permutation is always the perfect shuffle — more generally, every
// iterated reverse delta network — has depth Ω(lg²n / lg lg n).
//
// The root package is a façade over the implementation packages:
//
//   - comparator networks in both of the paper's models
//     (circuit and register; internal/network),
//   - the shuffle-based constructions incl. Stone's lg²n-depth bitonic
//     sorter (internal/shuffle) and the classical circuit constructions
//     (internal/netbuild),
//   - reverse delta networks and iterated stacks thereof
//     (internal/delta) with Beneš routing for the inter-block
//     permutations (internal/benes),
//   - the Section 3 pattern/refinement machinery (internal/pattern),
//   - the constructive lower-bound adversary: Lemma 4.1, Theorem 4.1
//     and Corollary 4.1.1 certificates (internal/core),
//   - sorting verification via the 0-1 principle (internal/sortcheck),
//     and
//   - a practical spin-off: generated branchless sorting kernels for
//     widths 2..16 (sortkernels, emitted by cmd/netgen from the
//     curated depth-optimal networks) behind the Sort and SortFunc
//     dispatchers below.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the reproduction results (experiments E1–E11,
// regenerable with cmd/experiments).
package shufflenet

import (
	"context"
	"math/rand"

	"shufflenet/internal/core"
	"shufflenet/internal/delta"
	"shufflenet/internal/netbuild"
	"shufflenet/internal/network"
	"shufflenet/internal/pattern"
	"shufflenet/internal/perm"
	"shufflenet/internal/shuffle"
	"shufflenet/internal/sortcheck"
)

// Re-exported core types. The aliases keep the implementation in the
// internal packages (whose layout mirrors the paper) while giving
// library users a single import.
type (
	// Network is a comparator network in the circuit model.
	Network = network.Network
	// Register is a comparator network in the paper's register model
	// (sequence of (Π_i, x⃗_i) steps).
	Register = network.Register
	// Comparator is a single circuit-model comparator element.
	Comparator = network.Comparator
	// Perm is a permutation of {0, ..., n−1} in one-line notation.
	Perm = perm.Perm
	// ReverseDelta is the recursive reverse delta network structure of
	// Definition 3.4.
	ReverseDelta = delta.Network
	// IteratedRDN is a (k,l)-iterated reverse delta network with
	// arbitrary inter-block permutations.
	IteratedRDN = delta.Iterated
	// Pattern is an input pattern over the paper's alphabet
	// {S_i, X_ij, M_i, L_i}.
	Pattern = pattern.Pattern
	// Analysis is the outcome of the constructive Theorem 4.1.
	Analysis = core.Analysis
	// Certificate is a Corollary 4.1.1 witness of non-sortability.
	Certificate = core.Certificate
	// Program is a compiled comparator network: a branch-free flat
	// comparator stream with allocation-free scalar evaluation
	// (EvalInto) and a bit-sliced 0-1 kernel (EvalBits, 64 inputs per
	// word) — the engine behind IsSortingNetwork and the exhaustive
	// checkers.
	Program = network.Program
)

// NewNetwork returns an empty circuit-model network on n wires.
func NewNetwork(n int) *Network { return network.New(n) }

// Bitonic returns Batcher's bitonic sorting network (circuit model):
// depth lg n (lg n + 1)/2.
func Bitonic(n int) *Network { return netbuild.Bitonic(n) }

// OddEvenMergeSort returns Batcher's odd-even merge sorting network.
func OddEvenMergeSort(n int) *Network { return netbuild.OddEvenMergeSort(n) }

// ShuffleBitonic returns Stone's strictly shuffle-based realization of
// the bitonic sorter: depth lg²n with Π_i the perfect shuffle at every
// step — the paper's upper-bound reference point.
func ShuffleBitonic(n int) *Register { return shuffle.Bitonic(n) }

// Butterfly returns the l-level butterfly as a reverse delta network.
func Butterfly(l int) *ReverseDelta { return delta.Butterfly(l) }

// RandomRDN returns a random l-level reverse delta network with the
// given comparator density in [0, 1].
func RandomRDN(l int, density float64, rng *rand.Rand) *ReverseDelta {
	return delta.Random(l, density, rng)
}

// NewIteratedRDN returns an empty iterated reverse delta network on
// n = 2^d slots; add blocks with AddBlock/AddForest.
func NewIteratedRDN(n int) *IteratedRDN { return delta.NewIterated(n) }

// Pratt returns Pratt's Θ(lg²n)-depth Shellsort sorting network — the
// class of networks behind Cypher's lower bound that this paper builds
// on.
func Pratt(n int) *Network { return netbuild.Pratt(n) }

// DecomposeIterated recovers the iterated reverse delta structure of a
// bare circuit with blocks of l levels, enabling the adversary to
// attack networks given only as circuits. ok is false when the circuit
// is not in the paper's class.
func DecomposeIterated(c *Network, l int) (*IteratedRDN, bool) {
	return delta.DecomposeIterated(c, l)
}

// Shuffle returns the perfect shuffle permutation on n = 2^d elements.
func Shuffle(n int) Perm { return perm.Shuffle(n) }

// IsSortingNetwork decides by the 0-1 principle (exhaustively, on the
// bit-sliced kernel, in parallel) whether the circuit sorts; it returns
// a failing 0-1 input as witness otherwise. The width must be at most
// sortcheck.MaxZeroOneWires (32).
func IsSortingNetwork(c *Network) (ok bool, witness []int) {
	return sortcheck.ZeroOne(c.Wires(), c, 0)
}

// Compile flattens the circuit into its compiled Program form: the
// allocation-free scalar and bit-sliced 0-1 evaluation engine.
func Compile(c *Network) *Program { return network.Compile(c) }

// CompileRegister flattens a register-model network into a Program via
// the Section 1 model equivalence.
func CompileRegister(r *Register) *Program { return network.CompileRegister(r) }

// Adversary runs the paper's constructive lower-bound argument
// (Theorem 4.1 with the paper's parameter k = lg n) against an iterated
// reverse delta network, returning the surviving noncolliding set and
// per-block reports.
func Adversary(it *IteratedRDN) *Analysis {
	// A Background run cannot be canceled, so it never errors.
	an, _ := core.Theorem41Ctx(context.Background(), it, 0)
	return an
}

// ExtractCertificate turns an Analysis with |D| >= 2 into a concrete,
// independently verifiable witness that the network is not a sorting
// network (Corollary 4.1.1); it returns core.ErrSetTooSmall otherwise.
func ExtractCertificate(an *Analysis) (*Certificate, error) { return an.Certificate() }
