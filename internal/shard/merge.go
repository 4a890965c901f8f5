// The merge half of scatter-gather: per-shard top-k lists into the
// global result, per-shard region constraints into the global immutable
// regions. Everything here is pure float/slice manipulation over
// numbers the shards computed — no arithmetic is introduced that a
// single node would not perform on the identical operands, which is
// what keeps the merge bit-identical (docs/sharding.md).
package shard

import (
	"container/heap"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topk"
	"repro/internal/vec"
)

// headHeap is a k-way merge heap over the per-shard lists' heads, in
// topk.ByRank order — the total order internal/topk maintains, so the
// merge reproduces a single node's result list exactly, ties included.
type headHeap struct {
	lists [][]topk.Scored
	pos   []int
	order []int // heap of list indices
}

func (h *headHeap) Len() int { return len(h.order) }
func (h *headHeap) Less(i, j int) bool {
	a, b := h.order[i], h.order[j]
	return topk.ByRank(h.lists[a][h.pos[a]], h.lists[b][h.pos[b]]) < 0
}
func (h *headHeap) Swap(i, j int) { h.order[i], h.order[j] = h.order[j], h.order[i] }
func (h *headHeap) Push(x any)    { h.order = append(h.order, x.(int)) }
func (h *headHeap) Pop() any {
	x := h.order[len(h.order)-1]
	h.order = h.order[:len(h.order)-1]
	return x
}

// mergeTopK heap-merges per-shard top-k lists (each already in the
// global order, under global ids) and cuts to k. Failed shards pass
// nil lists, which merge as empty.
func mergeTopK(lists [][]topk.Scored, k int) []topk.Scored {
	h := &headHeap{lists: lists, pos: make([]int, len(lists))}
	for i, l := range lists {
		if len(l) > 0 {
			h.order = append(h.order, i)
		}
	}
	heap.Init(h)
	out := make([]topk.Scored, 0, k)
	for len(out) < k && h.Len() > 0 {
		i := h.order[0]
		out = append(out, h.lists[i][h.pos[i]])
		h.pos[i]++
		if h.pos[i] < len(h.lists[i]) {
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return out
}

// mergeRegions combines the shards' per-dimension constraint regions,
// mirroring core's computeDim dispatch: the envelope paths (φ > 0,
// iterative or not, and composition-only) merge by replaying the
// union of shard-contributed lines against the imposed result; the
// classic φ = 0 path merges the per-shard bounds and is sent no lines.
// Bounds round inward, so every region contains its query: a merged
// region with Lo > 0, Hi < 0 or a NaN bound can only come from shards
// that disagree about the data (a write between the rounds), and it is
// refused rather than served.
func mergeRegions(q vec.Query, k int, res []topk.Scored, outs []*core.Output, lines []topk.Scored, opts engine.Options) ([]core.Regions, error) {
	var merged []core.Regions
	if opts.Envelope() {
		// Shards contribute disjoint tuple sets (imposed members are
		// excluded shard-side), so the union needs no dedup. The replay
		// is offer-order independent; sorting into the canonical
		// candidate order just makes the merge deterministic.
		lines = slices.Clone(lines)
		slices.SortFunc(lines, topk.ByRank)
		merged = core.ReplayRegions(q, k, res, lines, opts.Options)
	} else {
		merged = mergeClassic(outs)
	}
	for _, r := range merged {
		if !(r.Lo <= 0 && r.Hi >= 0) {
			return nil, fmt.Errorf("shard: merged region [%v, %v] of dimension %d excludes its query", r.Lo, r.Hi, r.Dim)
		}
	}
	return merged, nil
}

// mergeClassic merges φ = 0 regions per dimension and side: the shard
// bound that comes first in the canonical order — nearest to the query,
// then the smaller id of the tuple moving up, then of the one moving
// down — wins, its perturbation riding along. Every shard's bounds
// already include the result-reordering (Phase 1) constraints, computed
// from the identical imposed-result floats, so this is the single
// node's choice over all constraints. A shard reports its bound rounded
// inward; two bounds that round to one float64 are taken to be one
// position.
func mergeClassic(outs []*core.Output) []core.Regions {
	merged := append([]core.Regions(nil), outs[0].Regions...)
	for _, out := range outs[1:] {
		for jx := range merged {
			s, m := out.Regions[jx], &merged[jx]
			if s.Hi < m.Hi || s.Hi == m.Hi && firstPert(s.Right, m.Right) {
				m.Hi, m.Right = s.Hi, s.Right
			}
			if s.Lo > m.Lo || s.Lo == m.Lo && firstPert(s.Left, m.Left) {
				m.Lo, m.Left = s.Lo, s.Left
			}
		}
	}
	return merged
}

// firstPert reports whether bound a's perturbation precedes bound b's at
// the same position: by the id of the tuple moving up, then of the one
// moving down. A bound without one is the domain edge, which no
// perturbation shares.
func firstPert(a, b []core.Perturbation) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	return a[0].Below < b[0].Below || a[0].Below == b[0].Below && a[0].Above < b[0].Above
}

// mergeMetrics sums the shards' work counters in shard order. Merged
// metrics describe the distributed computation's total cost — they are
// NOT comparable to a single node's (shards evaluate conservatively
// near their boundaries), which is why the property suite compares
// results and regions, never metrics.
func mergeMetrics(outs []*core.Output) core.Metrics {
	m := core.Metrics{}
	if len(outs) > 0 && len(outs[0].Metrics.EvaluatedPerDim) > 0 {
		m.EvaluatedPerDim = make([]int, len(outs[0].Metrics.EvaluatedPerDim))
	}
	for _, out := range outs {
		om := out.Metrics
		m.Evaluated += om.Evaluated
		for i := range om.EvaluatedPerDim {
			if i < len(m.EvaluatedPerDim) {
				m.EvaluatedPerDim[i] += om.EvaluatedPerDim[i]
			}
		}
		m.Phase1 += om.Phase1
		m.Phase2 += om.Phase2
		m.Phase3 += om.Phase3
		m.Phase3Pulled += om.Phase3Pulled
		m.SeqPages += om.SeqPages
		m.RandReads += om.RandReads
		m.MemBytes += om.MemBytes
	}
	return m
}
