package core

import (
	"math"
	"sync"

	"repro/internal/topk"
)

// scratch is the working memory of one region computation: the
// evaluation memo plus the candidate-set buffers of Phase 2 and Phase 3.
// Everything in it is an index or a number per candidate — row positions
// in the scan's table (topk.Table), never a copy of a row — so it grows
// with the candidate list, not with the dataset. The rank order itself
// is the scan's, not kept here.
// One scratch serves every dimension of the computation; it is recycled
// across queries through scratchPool. Nothing in it escapes a ComputeView
// call — regions carry ids and deviations only — so it goes back to the
// pool when the computation finishes.
type scratch struct {
	// mark is the evaluation memo: table row p was fetched in the
	// current dimension iff mark[p] == epoch. resetEval (one integer bump)
	// starts a new dimension without clearing.
	mark  []uint32
	epoch uint32

	filtered  []int32   // filterClasses: the current pruned view of the rank order
	coords    []float64 // flat jx-coordinate column over the set
	idxA      []int32   // SLj↑ (classic) / SLj (envelope), heap-ordered
	idxB      []int32   // SLj↓ (classic), heap-ordered
	processed []bool    // set entries already pulled by the running search
	thr       []float64 // Phase 3: current list thresholds
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch returns a scratch to the pool. The buffers keep their
// contents — every user overwrites what it reads, and stale marks carry
// epochs that never come back — unless scratch poisoning is on
// (topk.PoisonScratch). Buffers are not trimmed on release: dropping the
// ones a heavy query grew was measured to cost more in regrowth than the
// memory it returned (docs/operations.md).
func putScratch(sc *scratch) {
	if topk.ScratchPoisoned() {
		sc.poison()
	}
	scratchPool.Put(sc)
}

// resetEval forgets every evaluation: the next dimension refetches.
func (sc *scratch) resetEval() {
	sc.epoch++
	if sc.epoch == 0 { // wrapped: marks from 4Gi resets ago could alias
		clear(sc.mark)
		sc.epoch = 1
	}
}

func (sc *scratch) poison() {
	nan := math.NaN()
	for _, s := range [][]float64{sc.coords[:cap(sc.coords)], sc.thr[:cap(sc.thr)]} {
		for i := range s {
			s[i] = nan
		}
	}
	for _, s := range [][]int32{sc.filtered[:cap(sc.filtered)], sc.idxA[:cap(sc.idxA)], sc.idxB[:cap(sc.idxB)]} {
		for i := range s {
			s[i] = -1
		}
	}
	processed := sc.processed[:cap(sc.processed)]
	for i := range processed {
		processed[i] = true
	}
	// "Already fetched" everywhere: a dimension that forgot to reset would
	// evaluate nothing and fail every count.
	mark := sc.mark[:cap(sc.mark)]
	for i := range mark {
		mark[i] = sc.epoch
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
