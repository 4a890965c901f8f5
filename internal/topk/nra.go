package topk

import (
	"sort"

	"repro/internal/lists"
	"repro/internal/vec"
)

// NRA is the no-random-access variant of the threshold algorithm (Fagin
// et al.). It consumes the inverted lists by sorted access only and
// maintains per-tuple score bounds: the lower bound sums the coordinates
// seen so far, the upper bound fills every unseen dimension with that
// list's current threshold. The paper's system model uses the
// random-access variant "due to its superior performance" (§2); NRA is
// implemented as the comparator that justifies the choice — on sparse
// data its upper bounds deflate only as slowly as the list thresholds
// do, so it reads far deeper before it can stop.
//
// This implementation runs until the ranked order is certain: the k-th
// lower bound must dominate every outsider's upper bound, and inside the
// top-k each adjacent pair must be order-certain. Exhausted lists make
// all bounds exact, so termination is guaranteed.
type NRA struct {
	weights []float64
	k       int
	cursors []lists.Cursor

	entries map[int]*nraEntry
	done    bool
	result  []NRAResult

	sortedAccesses int
}

// NRAResult is one ranked answer with its certainty interval. For fully
// resolved tuples Lower == Upper == the exact score.
type NRAResult struct {
	ID           int
	Lower, Upper float64
}

type nraEntry struct {
	id    int
	mask  uint64
	lower float64
}

// NRAIndex is the sorted-access-only slice of lists.Index that NRA
// needs — crucially, no Tuple method.
type NRAIndex interface {
	Cursor(dim int) lists.Cursor
}

// NewNRA prepares an NRA run over the same index TA uses, but through
// the sorted-access-only interface.
func NewNRA(ix NRAIndex, q vec.Query, k int) *NRA {
	n := &NRA{
		weights: q.Weights,
		k:       k,
		entries: make(map[int]*nraEntry),
	}
	for _, dim := range q.Dims {
		n.cursors = append(n.cursors, ix.Cursor(dim))
	}
	return n
}

// SortedAccesses reports the number of postings consumed.
func (n *NRA) SortedAccesses() int { return n.sortedAccesses }

// Run executes NRA to full order certainty.
func (n *NRA) Run() {
	if n.done {
		return
	}
	for {
		progressed := false
		for i, cur := range n.cursors {
			p, ok := cur.Next()
			if !ok {
				continue
			}
			progressed = true
			n.sortedAccesses++
			e := n.entries[p.ID]
			if e == nil {
				e = &nraEntry{id: p.ID}
				n.entries[p.ID] = e
			}
			e.mask |= 1 << uint(i)
			e.lower += float64(n.weights[i] * p.Val)
		}
		if n.tryFinish(!progressed) {
			return
		}
		if !progressed {
			// All lists exhausted yet order not certain: true ties.
			// Resolve deterministically by id, like TA's tiebreak.
			n.finishExhausted()
			return
		}
	}
}

// thresholds returns the per-list next keys (0 when exhausted).
func (n *NRA) thresholds() []float64 {
	t := make([]float64, len(n.cursors))
	for i, cur := range n.cursors {
		if p, ok := cur.Peek(); ok {
			t[i] = p.Val
		}
	}
	return t
}

// upper computes an entry's upper bound under thresholds t.
func (n *NRA) upper(e *nraEntry, t []float64) float64 {
	u := e.lower
	for i := range n.cursors {
		if e.mask&(1<<uint(i)) == 0 {
			u += float64(n.weights[i] * t[i])
		}
	}
	return u
}

// tryFinish checks the dual certainty condition and materializes the
// result when it holds. exhausted skips the unseen-tuple bound.
func (n *NRA) tryFinish(exhausted bool) bool {
	if len(n.entries) < n.k {
		return false
	}
	t := n.thresholds()
	ranked := n.rankedByLower()
	top := ranked[:n.k]

	// Condition 1: no outsider (or unseen tuple) can beat the k-th.
	kth := top[n.k-1].lower
	unseen := 0.0
	for i, w := range n.weights {
		unseen += float64(w * t[i])
	}
	if !exhausted && unseen > kth {
		return false
	}
	for _, e := range ranked[n.k:] {
		if n.upper(e, t) > kth {
			return false
		}
	}
	// Condition 2: the order within the top-k is certain.
	for i := 0; i+1 < n.k; i++ {
		if n.upper(top[i+1], t) > top[i].lower {
			return false
		}
	}
	n.materialize(top, t)
	return true
}

// finishExhausted resolves after full consumption: bounds are exact.
func (n *NRA) finishExhausted() {
	ranked := n.rankedByLower()
	if len(ranked) > n.k {
		ranked = ranked[:n.k]
	}
	n.materialize(ranked, n.thresholds())
}

func (n *NRA) rankedByLower() []*nraEntry {
	ranked := make([]*nraEntry, 0, len(n.entries))
	//lint:allow detcore collection order is irrelevant: the slice is fully re-sorted below with an id tiebreak (total order)
	for _, e := range n.entries {
		ranked = append(ranked, e)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].lower != ranked[j].lower {
			return ranked[i].lower > ranked[j].lower
		}
		return ranked[i].id < ranked[j].id
	})
	return ranked
}

func (n *NRA) materialize(top []*nraEntry, t []float64) {
	n.result = make([]NRAResult, len(top))
	for i, e := range top {
		n.result[i] = NRAResult{ID: e.id, Lower: e.lower, Upper: n.upper(e, t)}
	}
	n.done = true
}

// Result returns the ranked top-k with certainty intervals.
func (n *NRA) Result() []NRAResult {
	if !n.done {
		panic("topk: NRA Result before Run")
	}
	return n.result
}
