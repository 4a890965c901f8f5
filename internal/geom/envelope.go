package geom

import (
	"fmt"
	"math"
	"sort"
)

// PiecewiseLinear is a continuous piecewise-linear function over a closed
// domain [Breaks[0], Breaks[len-1]]. Segment i covers
// [Breaks[i], Breaks[i+1]] and evaluates Lines[i]. The φ>0 machinery uses
// it to represent the score of the k-th ranked tuple as the weight
// deviation x varies (the "lower envelope" of §6, Fig. 9).
type PiecewiseLinear struct {
	Breaks []float64
	Lines  []Line
}

// Eval evaluates the function at x, clamped to the domain.
func (p PiecewiseLinear) Eval(x float64) float64 {
	return p.segmentAt(x).Eval(x)
}

// segmentAt returns the line active at x (clamped to the domain).
func (p PiecewiseLinear) segmentAt(x float64) Line {
	n := len(p.Lines)
	if n == 0 {
		panic("geom: empty PiecewiseLinear")
	}
	i := sort.SearchFloat64s(p.Breaks, x) // first break >= x
	switch {
	case i <= 0:
		return p.Lines[0]
	case i >= len(p.Breaks):
		return p.Lines[n-1]
	default:
		return p.Lines[i-1]
	}
}

// MinDiff returns the minimum of p(x) - l(x) over the domain. Because
// both functions are piecewise linear, the minimum is attained at a
// breakpoint or a domain endpoint. Each breakpoint is evaluated on the
// segment segmentAt picks there — the one ending at it, or for a run of
// equal breaks the one ending at the run's first — found in one pass
// instead of a search per break, so the result is Eval's to the bit.
func (p PiecewiseLinear) MinDiff(l Line) float64 {
	if len(p.Breaks) > 0 && len(p.Lines) == 0 {
		panic("geom: empty PiecewiseLinear")
	}
	min := math.Inf(1)
	seg := 0
	for i, x := range p.Breaks {
		if i > 0 && x != p.Breaks[i-1] {
			seg = i - 1
		}
		if d := p.Lines[seg].Eval(x) - l.Eval(x); d < min {
			min = d
		}
	}
	return min
}

// AboveLine reports whether p(x) >= l(x) over the entire domain; the
// termination test "threshold line does not intersect the lower
// envelope" of §6.
func (p PiecewiseLinear) AboveLine(l Line) bool { return p.MinDiff(l) >= 0 }

// FirstCrossingAbove returns the smallest x in the domain where
// l(x) > p(x), i.e. where the line climbs strictly above the envelope,
// and ok=false if it never does. This is the entry point of a candidate
// into the top-k result.
func (p PiecewiseLinear) FirstCrossingAbove(l Line) (float64, bool) {
	for i := 0; i < len(p.Lines); i++ {
		lo, hi := p.Breaks[i], p.Breaks[i+1]
		seg := p.Lines[i]
		dLo := l.Eval(lo) - seg.Eval(lo)
		dHi := l.Eval(hi) - seg.Eval(hi)
		if dLo > 0 {
			return lo, true
		}
		if dHi <= 0 {
			continue
		}
		// crosses inside (lo, hi]
		x, ok := l.IntersectX(seg)
		if !ok {
			continue
		}
		if x < lo {
			x = lo
		}
		if x > hi {
			x = hi
		}
		return x, true
	}
	return 0, false
}

func (p PiecewiseLinear) String() string {
	return fmt.Sprintf("pwl{breaks=%v}", p.Breaks)
}

// KthEnvelope computes the piecewise-linear function giving the k-th
// highest of lines (k=1 is the upper envelope, k=len(lines) the lower).
// It runs the arrangement sweep and records every x where the identity of
// the rank-k line changes. Complexity O((n + I) log n) with I the number
// of crossings in the window — ample for the k + O(φ) lines the
// immutable-region boundary tracks.
func KthEnvelope(lines []Line, k int, xmin, xmax float64) PiecewiseLinear {
	if len(lines) == 0 {
		panic("geom: KthEnvelope of no lines")
	}
	if k < 1 || k > len(lines) {
		panic(fmt.Sprintf("geom: rank %d out of range [1,%d]", k, len(lines)))
	}
	sw := NewSweep(lines, xmin, xmax)
	cur := lines[sw.Order()[k-1]]
	breaks := []float64{xmin}
	var segs []Line
	for {
		c, ok := sw.Next()
		if !ok {
			break
		}
		next := lines[sw.Order()[k-1]]
		if next != cur {
			breaks = append(breaks, c.X)
			segs = append(segs, cur)
			cur = next
		}
	}
	breaks = append(breaks, xmax)
	segs = append(segs, cur)
	return PiecewiseLinear{Breaks: breaks, Lines: segs}
}
