package comm

import (
	"fmt"
	"math/rand"
	"testing"

	"commprof/internal/trace"
)

// These property tests pin the algebra the sharded pipeline's merge step
// relies on: shard results are combined with AddMatrix in whatever order the
// merge loop visits shards, so matrix addition must be commutative and
// associative, and BuildTree over merged per-region inputs must not depend on
// the merge order either. Every failure message carries the seed that
// generated the counterexample; rerun with that seed to reproduce.

// randMergeMatrix fills an n×n matrix with a random sparse pattern of random
// volumes, including saturating-large values to exercise uint64 addition.
func randMergeMatrix(rng *rand.Rand, n int) *Matrix {
	m := NewMatrix(n)
	for c := rng.Intn(3 * n); c >= 0; c-- {
		v := uint64(rng.Intn(1 << 20))
		if rng.Intn(16) == 0 {
			v = uint64(rng.Int63()) // large magnitudes exercise the high bits
		}
		m.Add(int32(rng.Intn(n)), int32(rng.Intn(n)), v)
	}
	return m
}

// foldInOrder is the reference merge: left-to-right accumulation into a fresh
// matrix, the order Engine.merge happens to use.
func foldInOrder(parts []*Matrix, n int) *Matrix {
	out := NewMatrix(n)
	for _, p := range parts {
		out.AddMatrix(p)
	}
	return out
}

func TestMatrixMergeCommutativeAndAssociative(t *testing.T) {
	const n = 16
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(9)
		parts := make([]*Matrix, k)
		for i := range parts {
			parts[i] = randMergeMatrix(rng, n)
		}
		want := foldInOrder(parts, n)

		// Commutativity: a random permutation folds to the same matrix.
		perm := rng.Perm(k)
		shuffled := make([]*Matrix, k)
		for i, j := range perm {
			shuffled[i] = parts[j]
		}
		if !foldInOrder(shuffled, n).Equal(want) {
			t.Fatalf("seed %d: merging %d matrices in permuted order %v differs from in-order fold; reproduce with rand.NewSource(%d)",
				seed, k, perm, seed)
		}

		// Associativity (and order, jointly): reduce by repeatedly merging a
		// random pair until one matrix remains. Each iteration picks a random
		// parenthesisation step, so over the seeds this explores arbitrary
		// association trees.
		work := make([]*Matrix, k)
		for i := range parts {
			work[i] = parts[i].Clone()
		}
		for len(work) > 1 {
			i := rng.Intn(len(work))
			j := rng.Intn(len(work) - 1)
			if j >= i {
				j++
			}
			work[i].AddMatrix(work[j])
			work[j] = work[len(work)-1]
			work = work[:len(work)-1]
		}
		if !work[0].Equal(want) {
			t.Fatalf("seed %d: random pairwise reduction of %d matrices differs from in-order fold; reproduce with rand.NewSource(%d)",
				seed, k, seed)
		}

		// The originals must be untouched by the reference folds (AddMatrix
		// mutates only its receiver) — a destroyed operand would make every
		// order-invariance result above vacuous.
		again := foldInOrder(parts, n)
		if !again.Equal(want) {
			t.Fatalf("seed %d: second in-order fold differs — merge mutated its operands", seed)
		}
	}
}

// randMergeTable builds a small random region tree honouring the table's
// topological-order contract (parent ID < child ID).
func randMergeTable(rng *rand.Rand, regions int) *trace.Table {
	tb := trace.NewTable()
	for i := 0; i < regions; i++ {
		parent := trace.NoRegion
		if i > 0 {
			parent = int32(rng.Intn(i))
		}
		name := fmt.Sprintf("r%d", i)
		if rng.Intn(2) == 0 {
			tb.AddFunc(name, parent)
		} else {
			tb.AddLoop(name, parent)
		}
	}
	return tb
}

// TestTreeMergeOrderInvariant checks the tree half of the merge algebra: the
// nested structure built from shard-wise per-region contributions is
// invariant under the order the shards are merged, node for node (own,
// cumulative and access counts), and still satisfies the summation law.
func TestTreeMergeOrderInvariant(t *testing.T) {
	const n, shards = 8, 6
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tb := randMergeTable(rng, 1+rng.Intn(12))
		regions := tb.Len()

		type contrib struct {
			own     []*Matrix
			acc     []uint64
			global  *Matrix
			outside *Matrix
		}
		parts := make([]contrib, shards)
		for s := range parts {
			c := contrib{
				own:     make([]*Matrix, regions),
				acc:     make([]uint64, regions),
				global:  randMergeMatrix(rng, n),
				outside: randMergeMatrix(rng, n),
			}
			for r := 0; r < regions; r++ {
				if rng.Intn(4) > 0 { // nil entries allowed: shard saw no such region
					c.own[r] = randMergeMatrix(rng, n)
				}
				c.acc[r] = uint64(rng.Intn(1 << 16))
			}
			parts[s] = c
		}

		build := func(order []int) *Tree {
			own := make([]*Matrix, regions)
			acc := make([]uint64, regions)
			global, outside := NewMatrix(n), NewMatrix(n)
			for r := range own {
				own[r] = NewMatrix(n)
			}
			for _, s := range order {
				c := parts[s]
				global.AddMatrix(c.global)
				outside.AddMatrix(c.outside)
				for r := 0; r < regions; r++ {
					if c.own[r] != nil {
						own[r].AddMatrix(c.own[r])
					}
					acc[r] += c.acc[r]
				}
			}
			tree, err := BuildTree(tb, own, acc, global, outside)
			if err != nil {
				t.Fatalf("seed %d: BuildTree(order %v): %v", seed, order, err)
			}
			return tree
		}

		inOrder := make([]int, shards)
		for i := range inOrder {
			inOrder[i] = i
		}
		want := build(inOrder)
		perm := rng.Perm(shards)
		got := build(perm)

		if err := got.CheckSummationLaw(); err != nil {
			t.Fatalf("seed %d: permuted-merge tree: %v; reproduce with rand.NewSource(%d)", seed, err, seed)
		}
		mismatch := ""
		want.Walk(func(w *Node, _ int) {
			if mismatch != "" {
				return
			}
			g, ok := got.nodes[w.Region.ID]
			switch {
			case !ok:
				mismatch = fmt.Sprintf("region %d missing", w.Region.ID)
			case !g.Own.Equal(w.Own):
				mismatch = fmt.Sprintf("region %d own matrix differs", w.Region.ID)
			case !g.Cumulative.Equal(w.Cumulative):
				mismatch = fmt.Sprintf("region %d cumulative matrix differs", w.Region.ID)
			case g.Accesses != w.Accesses:
				mismatch = fmt.Sprintf("region %d accesses %d != %d", w.Region.ID, g.Accesses, w.Accesses)
			}
		})
		if mismatch == "" && !got.Global.Equal(want.Global) {
			mismatch = "global matrix differs"
		}
		if mismatch == "" && !got.Outside.Equal(want.Outside) {
			mismatch = "outside matrix differs"
		}
		if mismatch != "" {
			t.Fatalf("seed %d: tree merged in order %v differs from in-order merge: %s; reproduce with rand.NewSource(%d)",
				seed, perm, mismatch, seed)
		}
	}
}
