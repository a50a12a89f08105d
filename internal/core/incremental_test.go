package core

import (
	"context"
	"math/rand"
	"testing"

	"shufflenet/internal/delta"
	"shufflenet/internal/pattern"
	"shufflenet/internal/perm"
)

// Incremental must agree exactly with the batch Theorem41Ctx.
func TestIncrementalMatchesTheorem41(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 8; trial++ {
		n := 32
		it := delta.NewIterated(n)
		inc := NewIncremental(n, 0)
		blocks := 1 + rng.Intn(4)
		for b := 0; b < blocks; b++ {
			var pre perm.Perm
			if b > 0 {
				pre = perm.Random(n, rng)
			}
			tree := delta.Random(5, 0.9, rng)
			it.AddBlock(pre, tree)
			inc.AddBlock(context.Background(), pre, delta.NewForest(tree))
		}
		batch, _ := Theorem41Ctx(context.Background(), it, 0)
		live := inc.Analysis()
		if !batch.P.Equal(live.P) {
			t.Fatalf("patterns differ:\nbatch %v\nlive  %v", batch.P, live.P)
		}
		if len(batch.D) != len(live.D) {
			t.Fatalf("D sizes differ: %d vs %d", len(batch.D), len(live.D))
		}
		if len(batch.Reports) != len(live.Reports) {
			t.Fatalf("report counts differ")
		}
		for i := range batch.Reports {
			if batch.Reports[i] != live.Reports[i] {
				t.Fatalf("report %d differs: %+v vs %+v", i, batch.Reports[i], live.Reports[i])
			}
		}
	}
}

// The Section 5 adaptivity claim: even a builder that inspects the
// adversary's full state before choosing each next block cannot beat
// the survival guarantee. The greedy builder here aims its butterfly
// levels at the surviving set by routing D-wires together via the
// pre-permutation — the most informed single-block attack available in
// the model — and the per-block Lemma 4.1 bound must still hold.
func TestIncrementalAdaptiveBuilder(t *testing.T) {
	n := 64
	l := 6
	inc := NewIncremental(n, 0)
	k := inc.K()
	for b := 0; b < 3; b++ {
		d := inc.D()
		if len(d) < 2 {
			break
		}
		// Adaptive attack: permute so the current D-wires sit on
		// adjacent slots (maximally exposed to the butterfly's low
		// levels). The adversary's wires-at-slots layout is internal,
		// but the input pattern is public; attack the original wires.
		pre := packFirst(n, d)
		rep, _ := inc.AddBlock(context.Background(), pre, delta.NewForest(delta.Butterfly(l)))
		// Lemma 4.1 guarantee holds regardless of adaptivity.
		if k*k*rep.Survivors < rep.Before*(k*k-l) {
			t.Fatalf("block %d: adaptive builder beat the bound: %+v", b, rep)
		}
	}
	if len(inc.D()) < 1 {
		t.Fatal("adversary annihilated by an adaptive builder — contradicts Theorem 4.1")
	}
}

// packFirst builds a permutation routing the given wires to slots
// 0..len(ws)-1 (in order) and the rest after them.
func packFirst(n int, ws []int) perm.Perm {
	p := make(perm.Perm, n)
	for i := range p {
		p[i] = -1
	}
	for i, w := range ws {
		p[w] = i
	}
	next := len(ws)
	for w := 0; w < n; w++ {
		if p[w] == -1 {
			p[w] = next
			next++
		}
	}
	return p
}

func TestIncrementalDeadStaysDead(t *testing.T) {
	// Drive an adversary to death with k = 1 on deep trees (k²=1 allows
	// total loss per block) — then confirm Dead() latches and D stays
	// empty.
	rng := rand.New(rand.NewSource(92))
	inc := NewIncremental(8, 1)
	for b := 0; b < 20 && !inc.Dead(); b++ {
		inc.AddBlock(context.Background(), perm.Random(8, rng), delta.NewForest(delta.Random(3, 1.0, rng)))
	}
	if !inc.Dead() {
		t.Skip("adversary survived even with k=1 (possible; nothing to assert)")
	}
	inc.AddBlock(context.Background(), nil, delta.NewForest(delta.Butterfly(3)))
	if len(inc.D()) != 0 {
		t.Fatal("dead adversary revived")
	}
	if inc.Pattern().Count(pattern.M(0)) != 0 {
		t.Fatal("dead pattern still contains M0")
	}
}

func TestIncrementalAccessors(t *testing.T) {
	inc := NewIncremental(16, 0)
	if inc.N() != 16 || inc.K() != 4 || inc.Dead() {
		t.Fatal("fresh incremental state wrong")
	}
	if len(inc.D()) != 16 {
		t.Fatal("initial D must be all wires")
	}
	p := inc.Pattern()
	p[0] = pattern.L(0)
	if inc.Pattern()[0] != pattern.M(0) {
		t.Fatal("Pattern() did not return a copy")
	}
}

func TestIncrementalValidation(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	inc := NewIncremental(16, 0)
	mustPanic("wrong forest width", func() {
		inc.AddBlock(context.Background(), nil, delta.NewForest(delta.Butterfly(3)))
	})
	mustPanic("wrong perm width", func() {
		inc.AddBlock(context.Background(), perm.Identity(8), delta.NewForest(delta.Butterfly(4)))
	})
	mustPanic("k above MaxK", func() { NewIncremental(8, MaxK+1) })
}

func TestIncrementalReportsAndOutPattern(t *testing.T) {
	inc := NewIncremental(16, 0)
	inc.AddBlock(context.Background(), nil, delta.NewForest(delta.Butterfly(4)))
	reps := inc.Reports()
	if len(reps) != 1 || reps[0].Before != 16 {
		t.Fatalf("Reports() = %+v", reps)
	}

	// OutPattern of a Lemma result: the output pattern must contain the
	// same symbol multiset as the input pattern of the block.
	res, _ := Lemma41(context.Background(), delta.Butterfly(3), pattern.Uniform(8, pattern.M(0)), 3)
	out := res.OutPattern()
	if len(out) != 8 {
		t.Fatalf("OutPattern length %d", len(out))
	}
	counts := map[pattern.Symbol]int{}
	for _, s := range out {
		counts[s]++
	}
	for i, ws := range res.Sets {
		if counts[pattern.M(i)] != len(ws) {
			t.Fatalf("OutPattern lost symbols of set %d", i)
		}
	}
}
