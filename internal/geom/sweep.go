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
	xmax  float64
	// order[r] is the index (into lines) of the line currently at rank r,
	// rank 0 being the highest value.
	order []int
	rank  []int // inverse of order
	ev    eventQueue
	lastX float64
}

// NewSweep prepares a sweep over (xmin, xmax). Lines are ranked at xmin;
// ties in value are broken by slope so that the order is correct
// immediately to the right of xmin (the overtaking line already counts as
// being above).
func NewSweep(lines []Line, xmin, xmax float64) *Sweep {
	s := &Sweep{lines: lines, xmax: xmax, lastX: xmin}
	n := len(lines)
	s.order = make([]int, n)
	for i := range s.order {
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		la, lb := lines[s.order[a]], lines[s.order[b]]
		ya, yb := la.Eval(xmin), lb.Eval(xmin)
		if ya != yb {
			return ya > yb
		}
		return la.B > lb.B
	})
	s.rank = make([]int, n)
	for r, i := range s.order {
		s.rank[i] = r
	}
	heap.Init(&s.ev)
	for r := 0; r+1 < n; r++ {
		s.schedule(r)
	}
	return s
}

// schedule enqueues the crossing between ranks r and r+1, if it happens
// strictly after the current sweep position and before xmax.
func (s *Sweep) schedule(r int) {
	i, j := s.order[r], s.order[r+1]
	x, ok := s.lines[i].IntersectX(s.lines[j])
	if !ok || x <= s.lastX || x >= s.xmax {
		return
	}
	heap.Push(&s.ev, event{x: x, i: i, j: j})
}

// Next returns the next crossing in x order, or ok=false when the window
// is exhausted. The returned Crossing has I above J just before the
// crossing (I is overtaken by J at X).
func (s *Sweep) Next() (Crossing, bool) {
	for len(s.ev) > 0 {
		e := heap.Pop(&s.ev).(event)
		ri, rj := s.rank[e.i], s.rank[e.j]
		if rj != ri+1 {
			continue // stale event: the pair is no longer adjacent
		}
		s.lastX = e.x
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

// Order returns the current top-to-bottom ordering of line indices at the
// sweep position (immediately after the last returned crossing).
func (s *Sweep) Order() []int {
	out := make([]int, len(s.order))
	copy(out, s.order)
	return out
}

type event struct {
	x    float64
	i, j int
}

type eventQueue []event

func (q eventQueue) Len() int            { return len(q) }
func (q eventQueue) Less(a, b int) bool  { return q[a].x < q[b].x }
func (q eventQueue) Swap(a, b int)       { q[a], q[b] = q[b], q[a] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}
