package geom

import (
	"container/heap"
	"sort"
)

// Sweep enumerates the pairwise crossings of a set of lines in ascending
// x order without materializing all O(n²) intersections up front. It is
// the plane-sweep of §6 Phase 1: the caller stops after the first φ+1
// events. The implementation is the standard arrangement sweep: order the
// lines by value at the left end of the window, keep a priority queue of
// crossing events between lines adjacent in that order, and on each
// popped event swap the pair and schedule the new adjacencies.
type Sweep struct {
	lines []Line
	end   X
	// order[r] is the index (into lines) of the line currently at rank r,
	// rank 0 being the highest value.
	order []int
	rank  []int // inverse of order
	ev    eventQueue
}

// NewSweep prepares a sweep over [0, end). The lines start in the order
// of a top-k result: value at 0 descending, then ID ascending. A tied
// pair whose lower line is the steeper one therefore crosses at 0.
func NewSweep(lines []Line, end X) *Sweep {
	s := &Sweep{lines: lines, end: end, ev: eventQueue{lines: lines}}
	n := len(lines)
	s.order = make([]int, n)
	for i := range s.order {
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		la, lb := lines[s.order[a]], lines[s.order[b]]
		if la.A != lb.A {
			return la.A > lb.A
		}
		return la.ID < lb.ID
	})
	s.rank = make([]int, n)
	for r, i := range s.order {
		s.rank[i] = r
	}
	for r := 0; r+1 < n; r++ {
		s.schedule(r)
	}
	return s
}

// schedule enqueues the crossing between ranks r and r+1 if the lower
// line overtakes the upper (so a pair swaps once) before end. The pair
// is ordered where the sweep stands, so they cross there or later: where
// lines meet in one point, the pairs the first swap makes adjacent cross
// at the current position too.
func (s *Sweep) schedule(r int) {
	i, j := s.order[r], s.order[r+1]
	if s.lines[j].B <= s.lines[i].B {
		return
	}
	if x := (X{s.lines[i], s.lines[j]}); Cmp(x, s.end) < 0 {
		heap.Push(&s.ev, event{x: x, i: i, j: j})
	}
}

// Next returns the next crossing, or ok=false when the window is
// exhausted. Crossings come in canonical order: by exact x, then by the
// ID of the line moving up (J), then of the line moving down (I). J is
// directly below I just before the crossing, and overtakes it at X.
func (s *Sweep) Next() (Crossing, bool) {
	for len(s.ev.ev) > 0 {
		e := heap.Pop(&s.ev).(event)
		ri, rj := s.rank[e.i], s.rank[e.j]
		if rj != ri+1 {
			continue // stale event: the pair is no longer adjacent
		}
		// swap ranks
		s.order[ri], s.order[rj] = e.j, e.i
		s.rank[e.i], s.rank[e.j] = rj, ri
		if ri > 0 {
			s.schedule(ri - 1)
		}
		if rj+1 < len(s.order) {
			s.schedule(rj)
		}
		return Crossing{X: e.x, I: e.i, J: e.j, RankAbove: ri}, true
	}
	return Crossing{}, false
}

type event struct {
	x    X
	i, j int
}

type eventQueue struct {
	lines []Line
	ev    []event
}

func (q eventQueue) Len() int { return len(q.ev) }
func (q eventQueue) Less(a, b int) bool {
	u, v := q.ev[a], q.ev[b]
	if c := Cmp(u.x, v.x); c != 0 {
		return c < 0
	}
	if eu, ev := q.lines[u.j].ID, q.lines[v.j].ID; eu != ev {
		return eu < ev
	}
	return q.lines[u.i].ID < q.lines[v.i].ID
}
func (q eventQueue) Swap(a, b int)       { q.ev[a], q.ev[b] = q.ev[b], q.ev[a] }
func (q *eventQueue) Push(x interface{}) { q.ev = append(q.ev, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	n := len(q.ev)
	e := q.ev[n-1]
	q.ev = q.ev[:n-1]
	return e
}
