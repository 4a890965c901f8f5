// Package geom provides the computational-geometry substrate for
// immutable-region computation: lines in score–deviation space, pairwise
// crossings via an arrangement sweep, k-th–rank envelopes, and the
// hyperplane distance of the STB comparator. Everything is hand-rolled
// on float64. Degeneracies are handled deterministically rather than
// rejected: lines tied at the sweep's start are ranked by slope, then by
// index, and lines through one point swap pairwise there, each pair
// once, in no canonical order. The sweep is held to internal/oracle's
// exact crossings.
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

// Crossing is a pairwise intersection of two lines at X, as Sweep
// reports it: I and J index the swept slice, I ranked directly above J,
// at rank RankAbove (0 = highest), when the sweep swaps them — unless
// other lines pass through the same point, I's rank just before X.
type Crossing struct {
	X         float64
	I, J      int
	RankAbove int
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
