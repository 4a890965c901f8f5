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

// TestEvalMemoResets drives the evaluation memo, a bit per row, through
// the life of a scratch: a reset forgets every mark, and a memo
// extended over a recycled span — all ones under scratch poisoning —
// keeps its old marks and reads the new rows as not evaluated.
func TestEvalMemoResets(t *testing.T) {
	sc := &scratch{}
	sc.growMark(4)
	sc.mark.set(2)
	sc.resetEval() // next dimension: everything forgotten
	if sc.mark.has(2) {
		t.Fatal("reset did not forget")
	}
	sc.mark.set(1)
	sc.release() // the span goes back to the arena, poisoned (TestMain)
	if sc.mark != nil {
		t.Fatal("a released scratch still holds its memo")
	}
	sc.growMark(2) // most likely the span just released
	sc.mark.set(1)
	sc.growMark(200)
	for p := range 200 {
		if sc.mark.has(p) != (p == 1) {
			t.Fatalf("memo extended to 200 rows reads %v at row %d, want only row 1 evaluated", sc.mark.has(p), p)
		}
	}
	sc.resetEval()
	for p := range 200 {
		if sc.mark.has(p) {
			t.Fatalf("row %d reads as evaluated after a reset", p)
		}
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
// (ties fall back to the tuple id), whatever order the heap starts from,
// consumed fully, partially, and with entries another list processed in
// between.
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
			rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })

			h := slj{idx: members, coords: coords, set: set, rows: rows, asc: asc}
			h.heapify()
			processed := make(bitset, words(n))
			stopAt := len(want)
			if trial%2 == 1 && stopAt > 0 {
				stopAt = rng.Intn(stopAt) // partial consumption
			}
			for w := 0; w < stopAt; w++ {
				if processed.has(int(want[w])) {
					continue // pulled through another list earlier
				}
				got, ok := h.peek(processed)
				if !ok || got != want[w] {
					t.Fatalf("trial %d asc=%v: pull %d = %d (ok=%v), want %d", trial, asc, w, got, ok, want[w])
				}
				if again, _ := h.peek(processed); again != got {
					t.Fatalf("trial %d: peek is not idempotent", trial)
				}
				processed.set(int(got))
				if later := w + 1 + rng.Intn(4); later < len(want) && rng.Intn(3) == 0 {
					processed.set(int(want[later]))
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
