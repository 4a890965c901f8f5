package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/lists"
	"repro/internal/topk"
	"repro/internal/vec"
)

// TestEvalMemoEpochs drives the position memo through the life of a
// pooled scratch: a reset forgets every mark without clearing, a stale
// mark from an earlier query never reads as evaluated, a wrapped epoch
// counter does not resurrect marks from 4Gi resets ago, and a memo
// extended over a recycled span reads as not evaluated.
func TestEvalMemoEpochs(t *testing.T) {
	sc := &scratch{}
	sc.growMark(4)
	sc.resetEval()
	sc.mark[2] = sc.epoch
	sc.resetEval() // next dimension: everything forgotten
	if sc.mark[2] == sc.epoch {
		t.Fatal("reset did not forget")
	}
	sc.epoch = ^uint32(0) - 1
	sc.resetEval()
	sc.mark[3] = sc.epoch
	sc.resetEval() // wraps to 0 → forced to 1 with marks cleared
	if sc.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", sc.epoch)
	}
	if slices.Contains(sc.mark, sc.epoch) {
		t.Fatal("mark survived epoch wrap")
	}
	sc.mark[1] = sc.epoch
	sc.release() // the span goes back to the arena, poisoned (TestMain)
	if sc.mark != nil {
		t.Fatal("a released scratch still holds its memo")
	}
	sc.growMark(2) // most likely the span just released
	sc.mark[1] = sc.epoch
	sc.growMark(4)
	if sc.mark[1] != sc.epoch || sc.mark[2] != 0 || sc.mark[3] != 0 {
		t.Fatalf("memo extended to %v, want the old mark kept and the new ones clear", sc.mark)
	}
	sc.resetEval()
	if slices.Contains(sc.mark, sc.epoch) {
		t.Fatal("recycled marks read as evaluated after a reset")
	}
	sc.release()
}

// sortIdxByCoord is the whole-list sort the lazy SLj replaced, kept as
// its reference: an index list over set ordered by the flat coordinate
// column — ascending when asc, else descending — ties by ascending id.
func sortIdxByCoord(idx []int32, coords []float64, set []int32, rows *topk.Table, asc bool) {
	slices.SortFunc(idx, func(a, b int32) int {
		av, bv := coords[a], coords[b]
		if av != bv {
			if (av < bv) == asc {
				return -1
			}
			return 1
		}
		return rows.ID(set[a]) - rows.ID(set[b])
	})
}

// shuffledTable returns a candidate table of n rows whose ids are a
// random permutation of the positions: a one-dimensional scan run to
// exhaustion meets the tuples in the order of their random coordinates.
func shuffledTable(rng *rand.Rand, n int) *topk.Table {
	tuples := make([]vec.Sparse, n)
	for i := range tuples {
		tuples[i] = vec.Sparse{{Dim: 0, Val: 0.1 + 0.9*rng.Float64()}}
	}
	ta := topk.New(lists.NewMemIndex(tuples, 1), vec.MustQuery([]int{0}, []float64{1}), 1, topk.RoundRobin)
	if err := ta.RunContext(context.Background()); err != nil {
		panic(err) // a memory index has no read to fail
	}
	for {
		if _, ok := ta.Resume(); !ok {
			return ta.Table() // never released: the pages stay this test's
		}
	}
}

// TestSLjPopsInSortedOrder: pulling the heap-ordered SLj yields exactly
// the sorted list, both directions, on coordinates full of duplicates
// (ties fall back to the tuple id), consumed fully, partially, and with
// entries another list processed in between.
func TestSLjPopsInSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		rows := shuffledTable(rng, n)
		set := make([]int32, n) // a shuffled order over the candidates
		for i, p := range rng.Perm(n) {
			set[i] = int32(p)
		}
		coords := make([]float64, n)
		for i := range coords {
			coords[i] = float64(rng.Intn(5)) / 4 // five distinct keys
		}
		for _, asc := range []bool{true, false} {
			var members []int32
			for i := 0; i < n; i++ {
				if rng.Intn(4) > 0 {
					members = append(members, int32(i))
				}
			}
			want := slices.Clone(members)
			sortIdxByCoord(want, coords, set, rows, asc)

			h := slj{idx: members, coords: coords, set: set, rows: rows, asc: asc}
			h.heapify()
			processed := make([]bool, n)
			stopAt := len(want)
			if trial%2 == 1 && stopAt > 0 {
				stopAt = rng.Intn(stopAt) // partial consumption
			}
			for w := 0; w < stopAt; w++ {
				if processed[want[w]] {
					continue // pulled through another list earlier
				}
				got, ok := h.peek(processed)
				if !ok || got != want[w] {
					t.Fatalf("trial %d asc=%v: pull %d = %d (ok=%v), want %d", trial, asc, w, got, ok, want[w])
				}
				if again, _ := h.peek(processed); again != got {
					t.Fatalf("trial %d: peek is not idempotent", trial)
				}
				processed[got] = true
				if later := w + 1 + rng.Intn(4); later < len(want) && rng.Intn(3) == 0 {
					processed[want[later]] = true
				}
			}
			if stopAt == len(want) {
				if got, ok := h.peek(processed); ok {
					t.Fatalf("trial %d asc=%v: %d left after the last entry", trial, asc, got)
				}
			}
		}
	}
}
