// Package oracle is the exact reference the region algorithms are held
// to, for tests only. It shares no code with internal/core, geom or topk
// (TestImportsNothingItChecks): it reads tuples and queries as data. It
// models the engine's input, not exact real scores: a tuple's score is
// what the engine ranks by, each weight–coordinate product rounded to
// float64 and then each partial sum in query-dimension order, computed
// here in big.Float at 53 bits, ties to even. From those scores and the
// coordinates it holds every crossing and rank exactly in math/big,
// rounding only what it reports, and each reported deviation inward. As
// a weight moves by δ, a score is the line score + δ·coord (§4); the
// k-th highest line (Level) is the top-k depth contour of Chester et al.
// Ties have one answer, the canonical rule: lines start in the result's
// order (score descending, then id ascending), and crossings at one δ
// swap, among the pairs adjacent at that moment, in order of the id of
// the line moving up, then of the line moving down. It is brute force,
// for a few dozen tuples.
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

// Crossing is a swap of lines I and J at X: I is directly above J, at
// rank Rank (0 = highest), just before they swap. X is the exact
// position rounded down.
type Crossing struct {
	X          float64
	I, J, Rank int
	x          frac
}

// Crossings returns the swaps of a sweep of lines over [0, end), in the
// canonical order, indices standing for ids.
func Crossings(lines []Line, end float64) []Crossing {
	a, b := make([]*big.Float, len(lines)), make([]*big.Float, len(lines))
	for i, l := range lines {
		a[i], b[i] = num(l.A), num(l.B)
	}
	cs := sweep(a, b, num(end))
	for i := range cs {
		cs[i].X = cs[i].x.floor()
	}
	return cs
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

// Perturbation is a result change at deviation Delta: Below overtakes
// Above, and Entry is set when Below was outside the top k.
type Perturbation struct {
	Delta        float64
	Above, Below int
	Entry        bool
}

// Regions is one query dimension's answer: the first φ+1 perturbations
// met moving its weight up (Right) and down (Left, deltas negative).
type Regions struct {
	Dim, QPos   int
	Right, Left []Perturbation
}

// Arrangement is every tuple's line on both sides of every query
// dimension, swept, for Regions to replay at any φ.
type Arrangement struct {
	q     vec.Query
	k     int
	sides [][2][]Crossing // per query dimension: up, then down (mirrored)
}

// Arrange builds the arrangement of tuples under q for a top-k query.
// With fewer than k tuples it has no sides: nothing perturbs the result.
// A side's window ends where the engine's does: at 1 − qj upward and qj
// downward, 1 − qj rounded to float64 as the engine computes it.
func Arrange(tuples []vec.Sparse, q vec.Query, k int) *Arrangement {
	a := &Arrangement{q: q, k: k}
	if len(tuples) < k {
		return a
	}
	score, proj := project(tuples, q)
	for jx, qj := range q.Weights {
		up, down := make([]*big.Float, len(tuples)), make([]*big.Float, len(tuples))
		for id, p := range proj {
			up[id], down[id] = p[jx], new(big.Float).Neg(p[jx])
		}
		a.sides = append(a.sides, [2][]Crossing{sweep(score, up, num(1-qj)), sweep(score, down, num(qj))})
	}
	return a
}

// Regions returns each query dimension's first φ+1 perturbations per
// side, composition changes only when compOnly: a swap of ranks
// (r, r+1) is a perturbation when r < k, an entry when r = k−1.
func (a *Arrangement) Regions(phi int, compOnly bool) []Regions {
	out := make([]Regions, len(a.q.Dims))
	for jx, dim := range a.q.Dims {
		out[jx] = Regions{Dim: dim, QPos: jx}
		if a.sides == nil {
			continue
		}
		for s, sign := range []float64{1, -1} {
			var perts []Perturbation
			for _, c := range a.sides[jx][s] {
				if len(perts) == phi+1 {
					break
				}
				if c.Rank < a.k && (!compOnly || c.Rank == a.k-1) {
					perts = append(perts, Perturbation{Delta: sign * c.x.floor(), Above: c.I, Below: c.J, Entry: c.Rank == a.k-1})
				}
			}
			if s == 0 {
				out[jx].Right = perts
			} else {
				out[jx].Left = perts
			}
		}
	}
	return out
}

// pair is two lines crossing at x, i above j just before it.
type pair struct {
	i, j int
	x    frac
}

// sweep returns the swaps of the lines y = a[i] + b[i]·x over [0, end):
// every pair whose steeper line overtakes the other there (at x = 0,
// only a tied pair whose steeper line has the larger id), sorted by x,
// and replayed in the canonical order. X is left for the caller to round.
func sweep(a, b []*big.Float, end *big.Float) []Crossing {
	var pairs []pair
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			p := pair{i: i, j: j}
			switch b[i].Cmp(b[j]) {
			case 0:
				continue // parallel: never swap
			case 1: // the flatter line is above before x
				p.i, p.j = j, i
			}
			p.x = frac{sub(a[p.i], a[p.j]), sub(b[p.j], b[p.i])}
			if s := p.x.n.Sign(); s < 0 || s == 0 && p.i > p.j || p.x.cmp(frac{end, num(1)}) >= 0 {
				continue
			}
			pairs = append(pairs, p)
		}
	}
	slices.SortFunc(pairs, func(u, v pair) int { return u.x.cmp(v.x) })

	order := ranked(a)
	rank := make([]int, len(a))
	for r, i := range order {
		rank[i] = r
	}
	out := make([]Crossing, 0, len(pairs))
	for g := 0; g < len(pairs); {
		next := g + 1
		for next < len(pairs) && pairs[next].x.cmp(pairs[g].x) == 0 {
			next++
		}
		// The pairs crossing at this x, in the canonical order: each
		// time the adjacent one whose lower line has the smallest id,
		// then whose upper line has.
		group := pairs[g:next]
		for len(group) > 0 {
			best := -1
			for i, p := range group {
				if rank[p.j] == rank[p.i]+1 && (best < 0 || cmp.Or(p.j-group[best].j, p.i-group[best].i) < 0) {
					best = i
				}
			}
			if best < 0 {
				panic("oracle: no adjacent pair among the crossings at one x")
			}
			p := group[best]
			r := rank[p.i]
			out = append(out, Crossing{I: p.i, J: p.j, Rank: r, x: p.x})
			rank[p.i], rank[p.j] = r+1, r
			group = slices.Delete(group, best, best+1)
		}
		g = next
	}
	return out
}

// project returns every tuple's score at q, as the engine computes it,
// and its coordinates on q.Dims.
func project(tuples []vec.Sparse, q vec.Query) (score []*big.Float, proj [][]*big.Float) {
	score, proj = make([]*big.Float, len(tuples)), make([][]*big.Float, len(tuples))
	for id, t := range tuples {
		s := num(0)
		proj[id] = make([]*big.Float, len(q.Dims))
		for jx, d := range q.Dims {
			proj[id][jx] = num(t.Get(d))
			s = f64(new(big.Float).Add(s, f64(mul(num(q.Weights[jx]), proj[id][jx]))))
		}
		score[id] = s
	}
	return score, proj
}

// f64 rounds z to float64 precision, ties to even, as a float64
// operation does.
func f64(z *big.Float) *big.Float {
	return new(big.Float).SetPrec(prec).Set(new(big.Float).SetPrec(53).SetMode(big.ToNearestEven).Set(z))
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

// floor returns the largest float64 not above u.
func (u frac) floor() float64 {
	f, acc := new(big.Float).SetPrec(53).SetMode(big.ToNegativeInf).Quo(u.n, u.d).Float64()
	if acc == big.Above {
		f = math.Nextafter(f, math.Inf(-1))
	}
	return f
}

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
