package core

import (
	"math"
	"sync"

	"repro/internal/topk"
)

// scratch is the working memory of one dimension worker of a region
// computation: the evaluation memo plus the candidate-set buffers Phase 2
// and Phase 3 used to allocate per dimension and side. One scratch serves
// a whole sequential computation, or one worker of a forked one; it is
// recycled across queries through scratchPool. Nothing in it escapes a
// ComputeView call — regions carry ids and deviations only — so it goes
// back to the pool when the worker finishes.
type scratch struct {
	eval evalTable

	full      []topk.Scored // fullSet: C(q) re-sorted by score
	filtered  []topk.Scored // filterClasses: the current pruned view
	coords    []float64     // flat jx-coordinate column over the set
	idxA      []int32       // SLj↑ (classic) / SLj (envelope)
	idxB      []int32       // SLj↓ (classic)
	processed []bool        // envelope: set positions offered to the side
	thr       []float64     // Phase 3: current list thresholds
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch takes a scratch from the pool with its evaluation memo
// sized for a dataset of n tuples. Dense memos are sized to the dataset
// cardinality, which dominates their cost, so a pooled one is kept
// whenever it is large enough.
func getScratch(n int) *scratch {
	sc := scratchPool.Get().(*scratch)
	switch {
	case n > evalDenseMax:
		sc.eval = evalTable{sparse: make(map[int][]float64)}
	case len(sc.eval.mark) < n:
		sc.eval = evalTable{proj: make([][]float64, n), mark: make([]uint32, n)}
	}
	return sc
}

// putScratch returns a scratch to the pool with the projection pointers
// its memo wrote dropped, so a pooled scratch does not pin the finished
// query's projections. A sparse memo is not kept; it is sized to its
// query. The buffers keep their contents — every user overwrites what it
// reads — unless scratch poisoning is on (topk.PoisonScratch).
func putScratch(sc *scratch) {
	if sc.eval.sparse != nil {
		sc.eval = evalTable{}
	}
	for _, id := range sc.eval.touched {
		sc.eval.proj[id] = nil
	}
	sc.eval.touched = sc.eval.touched[:0]
	if topk.ScratchPoisoned() {
		sc.poison()
	}
	scratchPool.Put(sc)
}

func (sc *scratch) poison() {
	nan := math.NaN()
	bad := topk.Scored{ID: -1, Score: nan, NZMask: ^uint64(0)}
	for _, s := range [][]topk.Scored{sc.full[:cap(sc.full)], sc.filtered[:cap(sc.filtered)]} {
		for i := range s {
			s[i] = bad
		}
	}
	for _, s := range [][]float64{sc.coords[:cap(sc.coords)], sc.thr[:cap(sc.thr)]} {
		for i := range s {
			s[i] = nan
		}
	}
	for _, s := range [][]int32{sc.idxA[:cap(sc.idxA)], sc.idxB[:cap(sc.idxB)]} {
		for i := range s {
			s[i] = -1
		}
	}
	processed := sc.processed[:cap(sc.processed)]
	for i := range processed {
		processed[i] = true
	}
}

// resize returns s with length n, reallocating only when the capacity
// falls short. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
