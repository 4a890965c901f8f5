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
// is the scan's, not kept here. The per-candidate buffers are spans of
// topk's page arena (topk.GrowSpan), not heap memory.
// One scratch serves every dimension of the computation; it is recycled
// across queries through scratchPool. Nothing in it escapes a ComputeView
// call — regions carry ids and deviations only — so its spans go back to
// the arena when the computation finishes.
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
	thr       []float64 // Phase 3: current list thresholds, one per query dimension
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// putScratch hands the scratch's spans back to the arena and returns
// the scratch to the pool, which then holds no per-candidate memory: the
// next computation takes spans of the sizes it needs from the arena's
// free lists, not the deepest query's buffers kept per pooled scratch.
// (A cap that trimmed those buffers on release was measured to cost more
// in regrowth than it returned, as it regrew them on the heap by
// copying; docs/operations.md.)
func putScratch(sc *scratch) {
	sc.release()
	scratchPool.Put(sc)
}

// release hands back the spans; under scratch poisoning
// (topk.PoisonScratch) they and the threshold buffer are overwritten.
func (sc *scratch) release() {
	topk.ReleaseSpan(sc.mark)
	topk.ReleaseSpan(sc.filtered)
	topk.ReleaseSpan(sc.coords)
	topk.ReleaseSpan(sc.idxA)
	topk.ReleaseSpan(sc.idxB)
	topk.ReleaseSpan(sc.processed)
	sc.mark, sc.filtered, sc.coords, sc.idxA, sc.idxB, sc.processed = nil, nil, nil, nil, nil, nil
	if topk.ScratchPoisoned() {
		thr := sc.thr[:cap(sc.thr)]
		for i := range thr {
			thr[i] = math.NaN()
		}
	}
}

// resetEval forgets every evaluation: the next dimension refetches.
func (sc *scratch) resetEval() {
	sc.epoch++
	if sc.epoch == 0 { // wrapped: marks from 4Gi resets ago could alias
		clear(sc.mark)
		sc.epoch = 1
	}
}

// growMark extends the evaluation memo to n rows. Only the new marks are
// cleared: the span they come from may hold anything, the old ones keep
// their epochs.
func (sc *scratch) growMark(n int) {
	if m := len(sc.mark); n > m {
		sc.mark = topk.GrowSpan(sc.mark, n)
		clear(sc.mark[m:])
	}
}

// resize returns s with length n as a span, taking a larger one only
// when the capacity falls short. The contents are unspecified.
func resize[T topk.Elem](s []T, n int) []T { return topk.GrowSpan(s[:0], n) }

// thresholds returns the threshold buffer with length qlen.
func (sc *scratch) thresholds(qlen int) []float64 {
	if cap(sc.thr) < qlen {
		sc.thr = make([]float64, qlen)
	}
	sc.thr = sc.thr[:qlen]
	return sc.thr
}
