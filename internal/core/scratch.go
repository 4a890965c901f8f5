package core

import "repro/internal/topk"

// scratch is the working memory of one region computation: the
// evaluation memo plus the candidate-set buffers of Phase 2 and Phase 3.
// Everything in it is a bit, an index or a number per candidate — row
// positions in the scan's table (topk.Table), never a copy of a row — so
// it grows with the candidate list, not with the dataset. The rank order
// itself is the scan's, not kept here. The per-candidate buffers are
// spans of topk's page arena (topk.GrowSpan), not heap memory.
// One scratch serves every dimension of one ComputeView call. Nothing in
// it escapes the call — regions carry ids and deviations only — so its
// spans go back to the arena when the computation finishes.
type scratch struct {
	// mark is the evaluation memo: table row p was fetched in the
	// current dimension iff bit p is set. resetEval clears it.
	mark bitset

	filtered  []int32   // filterClasses: the current pruned view of the rank order
	coords    []float64 // flat jx-coordinate column over the set
	idx       []int32   // the SLj heaps: SLj↑ (or the envelope's one list) from the front, SLj↓ from the back
	processed bitset    // set entries already pulled by the running search
	thr       []float64 // Phase 3: current list thresholds, one per query dimension
}

// bitset is a bit per row or set entry, bit i in word i/64: the memo and
// the processed flags take 1/8 B per candidate.
type bitset []uint64

func (b bitset) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// words is the length of a bitset of n bits.
func words(n int) int { return (n + 63) >> 6 }

// release hands the spans back to the arena (under topk.PoisonScratch
// they are overwritten first).
func (sc *scratch) release() {
	topk.ReleaseSpan(sc.mark)
	topk.ReleaseSpan(sc.filtered)
	topk.ReleaseSpan(sc.coords)
	topk.ReleaseSpan(sc.idx)
	topk.ReleaseSpan(sc.processed)
	sc.mark, sc.filtered, sc.coords, sc.idx, sc.processed = nil, nil, nil, nil, nil
}

// resetEval forgets every evaluation: the next dimension refetches.
func (sc *scratch) resetEval() { clear(sc.mark) }

// growMark extends the evaluation memo to n rows. Only the new words are
// cleared: the span they come from may hold anything, the old ones keep
// their marks.
func (sc *scratch) growMark(n int) {
	if w, m := words(n), len(sc.mark); w > m {
		sc.mark = topk.GrowSpan(sc.mark, w)
		clear(sc.mark[m:])
	}
}

// resetProcessed returns the processed flags for a set of n entries,
// all clear.
func (sc *scratch) resetProcessed(n int) bitset {
	sc.processed = resize(sc.processed, words(n))
	clear(sc.processed)
	return sc.processed
}

// resize returns s with length n as a span, taking a larger one only
// when the capacity falls short. The contents are unspecified.
func resize[T topk.Elem](s []T, n int) []T { return topk.GrowSpan(s[:0], n) }
