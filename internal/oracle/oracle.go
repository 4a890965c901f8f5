// Package oracle is the exact reference the region algorithms are held
// to, for tests only. It shares no code with internal/core, geom or topk
// (TestImportsNothingItChecks): it reads tuples and queries as data and
// holds every score, crossing and rank exactly in math/big, rounding
// only what it reports. As a weight moves by δ, a score is the line
// score + δ·coord (§4); the k-th highest line (Level) is the top-k depth
// contour of Chester et al. It is brute force, for a few dozen tuples.
package oracle

import (
	"cmp"
	"math"
	"math/big"
	"slices"

	"repro/internal/vec"
)

// Line is y = A + B·x.
type Line struct{ A, B float64 }

// Crossing is the point X where lines I and J meet, I above J just
// before it: I has the smaller slope.
type Crossing struct {
	X    float64
	I, J int
	x    frac // X, exactly
}

// Crossings returns every pairwise crossing of lines strictly inside
// (xmin, xmax), ordered by exact X, then I, then J.
func Crossings(lines []Line, xmin, xmax float64) []Crossing {
	a, b := make([]*big.Float, len(lines)), make([]*big.Float, len(lines))
	for i, l := range lines {
		a[i], b[i] = num(l.A), num(l.B)
	}
	hi := frac{num(xmax), num(1)}
	in, _ := crossings(a, b, frac{num(xmin), num(1)}, hi)
	return slices.DeleteFunc(in, func(c Crossing) bool { return c.x.cmp(hi) == 0 })
}

// Level returns the k-th highest (1-based) of lines at x, rounded once.
func Level(lines []Line, k int, x float64) float64 {
	vals := make([]*big.Float, len(lines))
	for i, l := range lines {
		vals[i] = add(num(l.A), mul(num(l.B), num(x)))
	}
	f, _ := vals[ranked(vals)[k-1]].Float64()
	return f
}

// Rank returns the ids of the top k tuples at q's weights, by score
// descending, then id ascending.
func Rank(tuples []vec.Sparse, q vec.Query, k int) []int {
	score, _ := project(tuples, q)
	ids := ranked(score)
	return ids[:min(k, len(ids))]
}

// Class names why a side has no one right answer; "" when it has one.
type Class string

const (
	// Tie: two of the top k+1 score the same at q, so which ranks first
	// just past δ = 0 need not be the result's order.
	Tie Class = "tie"
	// Concurrent: two crossings share one δ at or before the (φ+1)-th
	// event, so the order they are reported in is not unique.
	Concurrent Class = "concurrent"
)

// Perturbation is a result change at deviation Delta: Below overtakes
// Above, and Entry is set when Below was outside the top k.
type Perturbation struct {
	Delta        float64
	Above, Below int
	Entry        bool
}

// Side is the first φ+1 perturbations met moving one weight one way
// (Left deltas negative). Margin is the smallest gap between two
// distinct positions the answer depends on — crossings up to the one
// after the (φ+1)-th event, the domain end, the next crossing past it —
// or two scores of the top k+1 (0 if the top k cross on the domain end):
// a float computation may order positions closer than rounding wrongly.
type Side struct {
	Perts      []Perturbation
	Degenerate Class
	Margin     float64
}

// Regions is one query dimension's answer.
type Regions struct {
	Dim, QPos   int
	Right, Left Side
}

// Arrangement is every tuple's line on both sides of every query
// dimension, crossings sorted, for Regions to replay at any φ.
type Arrangement struct {
	q        vec.Query
	k        int
	tie      bool    // two of the top k+1 tie
	scoreGap float64 // smallest non-zero score gap among the top k+1
	sides    [][2]side
}

// side is one dimension and direction: each line's rank just right of
// δ = 0, the crossings in (0, end] ascending, and the rounded positions
// of the domain end and of the first crossing past it.
type side struct {
	end         frac
	rank        []int
	cross       []Crossing
	endX, pastX float64
}

// Arrange builds the arrangement of tuples under q for a top-k query.
// With fewer than k tuples it has no sides: nothing perturbs the result.
func Arrange(tuples []vec.Sparse, q vec.Query, k int) *Arrangement {
	a := &Arrangement{q: q, k: k, scoreGap: math.Inf(1)}
	if len(tuples) < k {
		return a
	}
	score, proj := project(tuples, q)
	ids := ranked(score)
	for r := 1; r < min(k+1, len(ids)); r++ {
		d, _ := sub(score[ids[r-1]], score[ids[r]]).Float64()
		a.tie, a.scoreGap = a.tie || d == 0, min(a.scoreGap, cmp.Or(d, math.Inf(1)))
	}
	for jx, qj := range q.Weights {
		right, left := make([]*big.Float, len(tuples)), make([]*big.Float, len(tuples))
		for id, p := range proj {
			right[id], left[id] = p[jx], new(big.Float).Neg(p[jx])
		}
		a.sides = append(a.sides, [2]side{newSide(score, right, sub(num(1), num(qj))), newSide(score, left, num(qj))})
	}
	return a
}

func newSide(a, b []*big.Float, end *big.Float) side {
	s := side{end: frac{end, num(1)}, rank: make([]int, len(a)), pastX: math.Inf(1)}
	s.endX, _ = end.Float64()
	var past *Crossing
	if s.cross, past = crossings(a, b, frac{num(0), num(1)}, s.end); past != nil && end.Sign() > 0 {
		s.pastX = past.X // an empty domain holds no crossing, near or not
	}
	order := ranked(a) // then ties broken by slope: the order just past δ = 0
	slices.SortFunc(order, func(i, j int) int { return cmp.Or(a[j].Cmp(a[i]), b[j].Cmp(b[i]), i-j) })
	for r, i := range order {
		s.rank[i] = r
	}
	return s
}

// Regions returns each query dimension's first φ+1 perturbations per
// side, composition changes only when compOnly.
func (a *Arrangement) Regions(phi int, compOnly bool) []Regions {
	out := make([]Regions, len(a.q.Dims))
	for jx, dim := range a.q.Dims {
		out[jx] = Regions{Dim: dim, QPos: jx, Right: Side{Margin: math.Inf(1)}, Left: Side{Margin: math.Inf(1)}}
		if a.sides != nil {
			out[jx].Right, out[jx].Left = a.sides[jx][0].walk(a, phi, compOnly, 1), a.sides[jx][1].walk(a, phi, compOnly, -1)
		}
	}
	return out
}

// walk replays the side's crossings in δ order and reports, as deltas of
// the given sign, those that touch the top k: a swap of ranks (r, r+1)
// is a perturbation when r < k, an entry when r = k−1. A crossing on the
// domain end perturbs nothing, but rounding may move it inside.
func (s *side) walk(a *Arrangement, phi int, compOnly bool, sign float64) Side {
	out, rank, prev := Side{Margin: a.scoreGap}, slices.Clone(s.rank), math.Inf(-1)
	if a.tie {
		out.Degenerate = Tie
	}
	for g := 0; ; {
		if g == len(s.cross) {
			out.Margin = min(out.Margin, s.endX-prev, s.pastX-s.endX)
			return out
		}
		c, next := s.cross[g], g+1
		for next < len(s.cross) && s.cross[next].x.cmp(c.x) == 0 {
			next++
		}
		out.Margin, prev = min(out.Margin, c.X-prev), c.X
		switch {
		case len(out.Perts) == phi+1:
			return out
		case c.x.cmp(s.end) == 0:
			if slices.ContainsFunc(s.cross[g:next], func(c Crossing) bool { return min(rank[c.I], rank[c.J]) < a.k }) {
				out.Margin = 0
			}
			out.Margin = min(out.Margin, s.pastX-s.endX)
			return out
		case next-g > 1:
			out.Degenerate = cmp.Or(out.Degenerate, Concurrent)
			return out
		case rank[c.J] != rank[c.I]+1:
			panic("oracle: a lone crossing of lines that are not adjacent")
		}
		r := rank[c.I]
		rank[c.I], rank[c.J] = r+1, r
		if r < a.k && (!compOnly || r == a.k-1) {
			out.Perts = append(out.Perts, Perturbation{Delta: sign * c.X, Above: c.I, Below: c.J, Entry: r == a.k-1})
		}
		g = next
	}
}

// crossings returns every crossing of the lines y = a[i] + b[i]·x with
// lo < x ≤ hi, ordered by byX, and the first one past hi (nil if none).
func crossings(a, b []*big.Float, lo, hi frac) (in []Crossing, past *Crossing) {
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			c := Crossing{I: i, J: j}
			if b[i].Cmp(b[j]) > 0 { // the flatter line is above before x
				c.I, c.J = j, i
			}
			if c.x = (frac{sub(a[c.I], a[c.J]), sub(b[c.J], b[c.I])}); c.x.d.Sign() == 0 || c.x.cmp(lo) <= 0 {
				continue
			}
			if c.X, _ = new(big.Float).SetPrec(53).Quo(c.x.n, c.x.d).Float64(); c.x.cmp(hi) <= 0 {
				in = append(in, c)
			} else if past == nil || byX(c, *past) < 0 {
				past = &c
			}
		}
	}
	slices.SortFunc(in, byX)
	return in, past
}

// byX orders crossings by x, then I, then J. Rounding is monotone, so
// crossings whose rounded X differ are ordered by those.
func byX(u, v Crossing) int {
	if u.X != v.X {
		return cmp.Compare(u.X, v.X)
	}
	return cmp.Or(u.x.cmp(v.x), u.I-v.I, u.J-v.J)
}

// project returns every tuple's exact score at q and its coordinates on
// q.Dims.
func project(tuples []vec.Sparse, q vec.Query) (score []*big.Float, proj [][]*big.Float) {
	score, proj = make([]*big.Float, len(tuples)), make([][]*big.Float, len(tuples))
	for id, t := range tuples {
		score[id], proj[id] = num(0), make([]*big.Float, len(q.Dims))
		for jx, d := range q.Dims {
			proj[id][jx] = num(t.Get(d))
			score[id] = add(score[id], mul(num(q.Weights[jx]), proj[id][jx]))
		}
	}
	return score, proj
}

// ranked returns every index by score descending, then index ascending.
func ranked(score []*big.Float) []int {
	ids := make([]int, len(score))
	for i := range ids {
		ids[i] = i
	}
	slices.SortFunc(ids, func(i, j int) int { return cmp.Or(score[j].Cmp(score[i]), i-j) })
	return ids
}

// frac is the rational n/d, d > 0.
type frac struct{ n, d *big.Float }

func (u frac) cmp(v frac) int { return mul(u.n, v.d).Cmp(mul(v.n, u.d)) }

// prec holds exactly every sum, difference and product formed of
// float64s in [2⁻⁵⁰⁰, 1]; exact panics on an operation that rounded.
const prec = 1 << 12

func num(f float64) *big.Float       { return new(big.Float).SetPrec(prec).SetFloat64(f) }
func add(x, y *big.Float) *big.Float { return exact(new(big.Float).SetPrec(prec).Add(x, y)) }
func sub(x, y *big.Float) *big.Float { return exact(new(big.Float).SetPrec(prec).Sub(x, y)) }
func mul(x, y *big.Float) *big.Float { return exact(new(big.Float).SetPrec(prec).Mul(x, y)) }

func exact(z *big.Float) *big.Float {
	if z.Acc() != big.Exact {
		panic("oracle: an operation rounded; the inputs span more than prec bits")
	}
	return z
}
