package delta

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"shufflenet/internal/network"
	"shufflenet/internal/par"
	"shufflenet/internal/perm"
	"shufflenet/internal/sortcheck"
)

// checkDecompose validates the Decompose contract on a circuit built
// from a known RDN: behavioral equivalence through the rail assignment.
func checkDecompose(t *testing.T, orig *Network, rng *rand.Rand) {
	t.Helper()
	c := orig.ToNetwork()
	d, railOf, ok := Decompose(c)
	if !ok {
		t.Fatal("Decompose rejected an RDN circuit")
	}
	if d.Levels() != orig.Levels() || d.Size() != orig.Size() {
		t.Fatalf("structure shape wrong: levels %d/%d size %d/%d",
			d.Levels(), orig.Levels(), d.Size(), orig.Size())
	}
	// railOf must be a permutation of the rails.
	if !perm.Perm(railOf).Valid() {
		t.Fatalf("railOf is not a permutation: %v", railOf)
	}
	n := c.Wires()
	for trial := 0; trial < 20; trial++ {
		x := []int(perm.Random(n, rng))
		slotIn := make([]int, n)
		for s, r := range railOf {
			slotIn[s] = x[r]
		}
		got := d.Eval(slotIn)
		want := c.Eval(x)
		for s := 0; s < n; s++ {
			if got[s] != want[railOf[s]] {
				t.Fatalf("behavioural mismatch at slot %d", s)
			}
		}
	}
}

func TestDecomposeButterfly(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for l := 1; l <= 5; l++ {
		checkDecompose(t, Butterfly(l), rng)
	}
}

func TestDecomposeRandomRDNs(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 25; trial++ {
		l := 1 + rng.Intn(5)
		checkDecompose(t, Random(l, 0.2+0.8*rng.Float64(), rng), rng)
	}
}

func TestDecomposeEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	checkDecompose(t, Empty(4), rng)
}

func TestDecomposeRejectsNonRDN(t *testing.T) {
	c := Butterfly(3).ToNetwork()
	// Repeat a level: no longer an RDN.
	c2 := c.Truncate(2)
	c2.AddLevel(c.Level(1))
	if _, _, ok := Decompose(c2); ok {
		t.Error("Decompose accepted a repeated-level circuit")
	}
}

func TestDecomposeIteratedBitonic(t *testing.T) {
	// Flatten BitonicIterated to a circuit, decompose it back, and
	// confirm the recovered iterated RDN still sorts — full round trip
	// through rail space.
	for _, dd := range []int{2, 3, 4} {
		n := 1 << uint(dd)
		circ, place := BitonicIterated(dd).ToNetwork()
		it, ok := DecomposeIterated(circ, dd)
		if !ok {
			t.Fatalf("d=%d: DecomposeIterated failed on bitonic", dd)
		}
		if it.Blocks() != dd+1 {
			t.Fatalf("d=%d: recovered %d blocks", dd, it.Blocks())
		}
		// Behavioral check through the recovered structure.
		c2, place2 := it.ToNetwork()
		rng := rand.New(rand.NewSource(74))
		for trial := 0; trial < 20; trial++ {
			x := []int(perm.Random(n, rng))
			a := circ.Eval(x)
			b := c2.Eval(x)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("d=%d: recovered circuit differs", dd)
				}
			}
		}
		_ = place2
		// And it sorts: c2 is rail-equivalent to circ, so the original
		// flatten's placement locates the sorted output.
		ok01, w := sortcheck.ZeroOne(n, remapEval2{c2, place}, 0)
		if !ok01 {
			t.Fatalf("d=%d: recovered bitonic does not sort (%v)", dd, w)
		}
	}
}

type remapEval2 struct {
	c     interface{ Eval([]int) []int }
	place perm.Perm
}

func (e remapEval2) Eval(in []int) []int {
	out := e.c.Eval(in)
	fixed := make([]int, len(out))
	for s, r := range e.place {
		fixed[s] = out[r]
	}
	return fixed
}

func TestDecomposeIteratedRejects(t *testing.T) {
	c := Butterfly(3).ToNetwork()
	if _, ok := DecomposeIterated(c, 2); ok {
		t.Error("accepted depth not divisible by l")
	}
	if _, ok := DecomposeIterated(c, 0); ok {
		t.Error("accepted l = 0")
	}
}

// TestDecomposeIteratedCanonical: repeated calls on one circuit recover
// the same structure, the same Pre permutations and the same blocks
// comparator for comparator, on seeded one- and two-block networks.
// The adversary's answer is computed on this structure, so it must not
// change from call to call.
func TestDecomposeIteratedCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for trial := 0; trial < 24; trial++ {
		l := 4 + trial%3
		n := 1 << uint(l)
		it := NewIterated(n)
		for b := 0; b <= trial%2; b++ {
			it.AddBlock(perm.Random(n, rng), Random(l, 0.5+0.5*rng.Float64(), rng))
		}
		c, _ := it.ToNetwork()
		first, ok := DecomposeIterated(c, l)
		if !ok {
			t.Fatalf("trial %d: DecomposeIterated rejected an iterated RDN", trial)
		}
		for rep := 0; rep < 5; rep++ {
			again, _ := DecomposeIterated(c, l)
			for b := 0; b < first.Blocks(); b++ {
				if !again.Pre(b).Equal(first.Pre(b)) {
					t.Fatalf("trial %d, call %d: block %d's Pre changed:\n%v\n%v", trial, rep, b, first.Pre(b), again.Pre(b))
				}
				if !reflect.DeepEqual(again.Block(b), first.Block(b)) {
					t.Fatalf("trial %d, call %d: block %d changed", trial, rep, b)
				}
			}
		}
	}
}

// sparseBlock is a one-block iterated RDN on 2^10 wires, each
// comparator kept with probability 0.1, behind a random permutation:
// the split search backtracks on it for about a minute.
func sparseBlock() *network.Network {
	rng := rand.New(rand.NewSource(3))
	it := NewIterated(1 << 10)
	it.AddBlock(perm.Random(1<<10, rng), Random(10, 0.1, rng))
	c, _ := it.ToNetwork()
	return c
}

func TestDecomposeIteratedCtxBackgroundMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 10; trial++ {
		l := 1 + rng.Intn(5)
		it := NewIterated(1 << l)
		for b := 1 + rng.Intn(3); b > 0; b-- {
			it.AddBlock(perm.Random(1<<l, rng), Random(l, 0.3+0.7*rng.Float64(), rng))
		}
		c, _ := it.ToNetwork()
		want, wantOK := DecomposeIterated(c, l)
		got, ok, err := DecomposeIteratedCtx(context.Background(), c, l)
		if err != nil || ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: DecomposeIteratedCtx (%v, %v) differs from DecomposeIterated (%v)", trial, ok, err, wantOK)
		}
	}
}

func TestDecomposeIteratedCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := Butterfly(4).ToNetwork()
	it, ok, err := DecomposeIteratedCtx(ctx, c, 4)
	var ce *par.ErrCanceled
	if !errors.As(err, &ce) || ce.Op != "delta.DecomposeIterated" || !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want ErrCanceled{Op: delta.DecomposeIterated} over context.Canceled", err)
	}
	if it != nil || ok || ce.BlocksDone != 0 {
		t.Fatalf("canceled run returned (%v, %v), blocks done %d", it, ok, ce.BlocksDone)
	}
}

// TestDecomposeIteratedCtxDeadline: a deadline cuts the backtracking
// split search on a sparse block, which runs for about a minute
// without one.
func TestDecomposeIteratedCtxDeadline(t *testing.T) {
	c := sparseBlock()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := DecomposeIteratedCtx(ctx, c, 10)
	took := time.Since(start)
	var ce *par.ErrCanceled
	if !errors.As(err, &ce) || ce.Op != "delta.DecomposeIterated" || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v after %v, want ErrCanceled{Op: delta.DecomposeIterated} over the deadline", err, took)
	}
	if took > 2*time.Second {
		t.Fatalf("a 100 ms deadline took %v to end the search", took)
	}
}
