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
// deviation x varies (the "lower envelope" of §6, Fig. 9). The breaks
// are exact: every inner one is where two consecutive segment lines
// cross.
type PiecewiseLinear struct {
	Breaks []X
	Lines  []Line
	// end is a float64 at or past the last break and under is at or
	// below p over the domain (KthEnvelope, the one constructor, sets
	// both): AboveLine's first test, one comparison for a line far below.
	end, under float64
}

// Eval evaluates the function at x, clamped to the domain.
func (p PiecewiseLinear) Eval(x float64) float64 {
	n := len(p.Lines)
	if n == 0 {
		panic("geom: empty PiecewiseLinear")
	}
	i := sort.Search(len(p.Breaks), func(i int) bool { return Cmp(p.Breaks[i], At(x)) >= 0 }) // first break >= x
	return p.Lines[min(max(i-1, 0), n-1)].Eval(x)
}

// AboveLine reports whether p(x) > l(x) over the entire domain, exactly:
// the test "the line cannot reach the envelope" that rejects a candidate
// (§6) and stops a probe. Both functions are linear between breaks, so
// it suffices that p is above l at every break — and a break needs no
// test when l is no steeper than the segment that ends there, since l
// was below that segment where it began.
func (p PiecewiseLinear) AboveLine(l Line) bool {
	if l.A < p.under && bound(l, p.end, 1) < p.under {
		return true
	}
	for i, x := range p.Breaks {
		if i > 0 && l.B <= p.Lines[i-1].B {
			continue
		}
		if Sign(l, p.Lines[min(i, len(p.Lines)-1)], x) >= 0 {
			return false
		}
	}
	return true
}

// KthEnvelope computes the piecewise-linear function giving the k-th
// highest of lines (k=1 is the upper envelope, k=len(lines) the lower)
// over [0, end]. It runs the arrangement sweep and records every
// crossing where the identity of the rank-k line changes. Complexity
// O((n + I) log n) with I the number of crossings in the window — ample
// for the k + O(φ) lines the immutable-region boundary tracks.
func KthEnvelope(lines []Line, k int, end X) PiecewiseLinear {
	if len(lines) == 0 {
		panic("geom: KthEnvelope of no lines")
	}
	if k < 1 || k > len(lines) {
		panic(fmt.Sprintf("geom: rank %d out of range [1,%d]", k, len(lines)))
	}
	sw := NewSweep(lines, end)
	cur := lines[sw.order[k-1]]
	breaks := []X{At(0)}
	var segs []Line
	for {
		c, ok := sw.Next()
		if !ok {
			break
		}
		next := lines[sw.order[k-1]]
		if next != cur {
			breaks = append(breaks, c.X)
			segs = append(segs, cur)
			cur = next
		}
	}
	breaks = append(breaks, end)
	segs = append(segs, cur)
	p := PiecewiseLinear{Breaks: breaks, Lines: segs}
	// The end's float64 quotient rounds three times, under 3u of it;
	// 8u past it is past the end. Every segment line is then at least
	// min(A, A + B·end) over the domain.
	p.end = (end.P.A - end.Q.A) / (end.Q.B - end.P.B)
	p.end += float64(math.Abs(p.end) * 0x1p-50)
	p.under = math.Inf(1)
	for _, m := range segs {
		p.under = min(p.under, m.A, bound(m, p.end, -1))
	}
	return p
}

// bound returns a float64 at or above (dir = 1) or at or below (dir = −1)
// m.A + m.B·x: the sum and the product each round once, under 2u of
// |m.A| + |m.B·x| with u = 2⁻⁵³, and the margin takes 8u, plus a term for
// a product that underflows.
func bound(m Line, x, dir float64) float64 {
	v := float64(m.B * x)
	margin := float64((math.Abs(m.A)+math.Abs(v))*0x1p-50) + 0x1p-1070
	return m.A + v + float64(dir*margin)
}
