// Package geom provides the computational-geometry substrate for
// immutable-region computation: lines in score–deviation space, pairwise
// crossings via an arrangement sweep, k-th–rank envelopes, 2-D convex
// hulls and hyperplane distances. Everything is hand-rolled on float64;
// the algorithms assume general position (no three lines concurrent, no
// two parallel lines among those compared), which holds almost surely for
// the real-valued data the paper targets. Degeneracies are handled
// deterministically (ties broken by slope, then by index) rather than
// rejected.
package geom

import (
	"fmt"
	"math"
)

// Line is y = A + B*x: A is the value at x = 0 (a tuple's current score),
// B is the slope (the tuple's coordinate in the dimension being varied).
// ID carries the owning tuple's identity through geometric computations.
type Line struct {
	A  float64
	B  float64
	ID int
}

// Eval returns the line's value at x.
func (l Line) Eval(x float64) float64 { return l.A + l.B*x }

// IntersectX returns the x-coordinate where l and o cross. ok is false
// for parallel lines (including identical ones).
func (l Line) IntersectX(o Line) (x float64, ok bool) {
	db := l.B - o.B
	if db == 0 {
		return 0, false
	}
	return (o.A - l.A) / db, true
}

func (l Line) String() string { return fmt.Sprintf("y=%.6g%+.6gx (id=%d)", l.A, l.B, l.ID) }

// Crossing is a pairwise intersection of two lines at X. I and J are
// indices into the slice the sweep was run on, with I ranked above J
// (higher value) immediately before X. RankAbove is I's 0-based rank
// (0 = highest line) just before the crossing when produced by Sweep,
// and -1 when produced by CrossingsAllPairs (which does not track ranks).
type Crossing struct {
	X         float64
	I, J      int
	RankAbove int
}

// CrossingsAllPairs enumerates every pairwise crossing of lines with
// x strictly inside (xmin, xmax), sorted by ascending X. It is the O(n²)
// reference used for testing and for small inputs.
func CrossingsAllPairs(lines []Line, xmin, xmax float64) []Crossing {
	var out []Crossing
	for i := 0; i < len(lines); i++ {
		for j := i + 1; j < len(lines); j++ {
			x, ok := lines[i].IntersectX(lines[j])
			if !ok || x <= xmin || x >= xmax {
				continue
			}
			hi, lo := i, j
			// Rank just before the crossing: the line with the smaller
			// slope is above (it is overtaken at x).
			if lines[i].B > lines[j].B {
				hi, lo = j, i
			}
			out = append(out, Crossing{X: x, I: hi, J: lo, RankAbove: -1})
		}
	}
	sortCrossings(out)
	return out
}

func sortCrossings(cs []Crossing) {
	// insertion-friendly sizes dominate here; use a simple sort to keep
	// ties (equal X) ordered deterministically by (I, J).
	lessThan := func(a, b Crossing) bool {
		if a.X != b.X {
			return a.X < b.X
		}
		if a.I != b.I {
			return a.I < b.I
		}
		return a.J < b.J
	}
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && lessThan(cs[j], cs[j-1]); j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
}

// Hyperplane is {x : N·x = C} in the query-vector space; it bounds the
// half-space where one tuple outscores another. Used by the STB
// sensitivity-radius comparator (Soliman et al., described in §2).
type Hyperplane struct {
	N []float64
	C float64
}

// Distance returns the Euclidean distance from point p to the hyperplane.
// It returns +Inf for a degenerate (zero-normal) hyperplane, which arises
// when two tuples coincide on the query dimensions and therefore never
// swap order.
func (h Hyperplane) Distance(p []float64) float64 {
	n := 0.0
	dot := 0.0
	for i, v := range h.N {
		n += v * v
		dot += v * p[i]
	}
	if n == 0 {
		return math.Inf(1)
	}
	return math.Abs(dot-h.C) / math.Sqrt(n)
}

// Point is a 2-D point.
type Point struct{ X, Y float64 }

// ConvexHull returns the convex hull of pts in counter-clockwise order
// using Andrew's monotone chain. Collinear points on the hull boundary
// are dropped. The input is not modified.
func ConvexHull(pts []Point) []Point {
	if len(pts) <= 2 {
		out := make([]Point, len(pts))
		copy(out, pts)
		return out
	}
	sorted := make([]Point, len(pts))
	copy(sorted, pts)
	sortPoints(sorted)

	cross := func(o, a, b Point) float64 {
		return (a.X-o.X)*(b.Y-o.Y) - (a.Y-o.Y)*(b.X-o.X)
	}
	var hull []Point
	// lower chain
	for _, p := range sorted {
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	// upper chain
	lower := len(hull) + 1
	for i := len(sorted) - 2; i >= 0; i-- {
		p := sorted[i]
		for len(hull) >= lower && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p)
	}
	return hull[:len(hull)-1]
}

// InConvexPolygon reports whether p lies inside or on the boundary of the
// counter-clockwise convex polygon poly.
func InConvexPolygon(p Point, poly []Point) bool {
	if len(poly) == 0 {
		return false
	}
	if len(poly) == 1 {
		return poly[0] == p
	}
	const eps = 1e-12
	for i := range poly {
		a, b := poly[i], poly[(i+1)%len(poly)]
		crossv := (b.X-a.X)*(p.Y-a.Y) - (b.Y-a.Y)*(p.X-a.X)
		if crossv < -eps {
			return false
		}
	}
	return true
}

func sortPoints(pts []Point) {
	less := func(a, b Point) bool {
		if a.X != b.X {
			return a.X < b.X
		}
		return a.Y < b.Y
	}
	// Shell sort keeps this dependency-free of sort.Slice's reflection at
	// geometry inner-loop call sites; inputs are modest (k + candidates).
	gaps := []int{701, 301, 132, 57, 23, 10, 4, 1}
	for _, gap := range gaps {
		for i := gap; i < len(pts); i++ {
			tmp := pts[i]
			j := i
			for ; j >= gap && less(tmp, pts[j-gap]); j -= gap {
				pts[j] = pts[j-gap]
			}
			pts[j] = tmp
		}
	}
}
