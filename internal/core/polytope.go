package core

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/topk"
)

// The weights that preserve the ranked top-k form a polyhedron of
// half-spaces w · (d_α − d_β) ≥ 0 (Fig. 3), too complex to build in high
// dimension (§2); footnote 1 observes that the cross-polytope spanned by
// the per-dimension region endpoints lies inside it.

// SafeConcurrent reports whether shifting all weights simultaneously by
// devs (parallel to q.Dims) is guaranteed to preserve the ranked result.
// It implements footnote 1: the convex hull of the axis projections —
// the cross-polytope with semi-axes (lj, uj) — lies fully inside the
// validity polyhedron, so any deviation vector with
//
//	Σ_j  |devs_j| / extent_j(sign)  ≤ 1
//
// is safe. extent is uj for a positive component and |lj| for a negative
// one. A zero extent with a non-zero component in that direction is
// unsafe. The test is sufficient, not necessary: deviations outside the
// cross-polytope may still preserve the result (they are simply not
// guaranteed to).
func SafeConcurrent(regions []Regions, devs []float64) (bool, error) {
	if len(devs) != len(regions) {
		return false, fmt.Errorf("core: %d deviations for %d query dimensions", len(devs), len(regions))
	}
	return PolytopeOf(make([]float64, len(regions)), regions).Contains(devs), nil
}

// Polytope is the cross-polytope of footnote 1 around an anchor weight
// vector W: per query position j the semi-axes Lo[j] ≤ 0 ≤ Hi[j], and
// the 2·qlen vertices W + Lo[j]·e_j and W + Hi[j]·e_j. It is the one
// region object the cache's containment, its write invalidation and the
// shards' relevance filter test against.
type Polytope struct {
	W, Lo, Hi []float64
}

// PolytopeOf is the innermost-region polytope of an analysis at weights
// w (retained, not copied), regions parallel to it.
func PolytopeOf(w []float64, regions []Regions) Polytope {
	p := axes(w, len(regions))
	for i, reg := range regions {
		p.Lo[i], p.Hi[i] = reg.Lo, reg.Hi
	}
	return p
}

// Closure is p with every bound a perturbation of regions defines moved
// one float64 outward. Such a bound is the exact crossing rounded inward,
// so the closure contains the exact region, its boundary included: the
// line that defines a bound, and any line tied with it there, reaches
// the closure. regions must be the ones p was made of.
func (p Polytope) Closure(regions []Regions) Polytope {
	c := axes(p.W, len(regions))
	for j, reg := range regions {
		c.Lo[j], c.Hi[j] = p.Lo[j], p.Hi[j]
		if len(reg.Left) > 0 {
			c.Lo[j] = math.Nextafter(c.Lo[j], math.Inf(-1))
		}
		if len(reg.Right) > 0 {
			c.Hi[j] = math.Nextafter(c.Hi[j], math.Inf(1))
		}
	}
	return c
}

// Domain is the whole weight domain [0, 1]^qlen as a polytope around w
// (retained, not copied): Lo = −w, Hi = 1 − w.
func Domain(w []float64) Polytope {
	p := axes(w, len(w))
	for j, wj := range w {
		p.Lo[j], p.Hi[j] = -wj, 1-wj
	}
	return p
}

// axes allocates both semi-axis columns in one array; Lo's capacity is
// capped so that each column counts only itself.
func axes(w []float64, n int) Polytope {
	ext := make([]float64, 2*n)
	return Polytope{W: w, Lo: ext[:n:n], Hi: ext[n:]}
}

// Contains reports whether w lies in the closed polytope: with
// d = w − W, Σ_j |d_j| / extent_j ≤ 1, where the extent is Hi[j] for a
// positive component and |Lo[j]| for a negative one; a zero extent
// against a non-zero component is outside. A w of another length is
// outside.
func (p Polytope) Contains(w []float64) bool {
	if len(w) != len(p.W) {
		return false
	}
	sum := 0.0
	for j, wj := range w {
		switch d := wj - p.W[j]; {
		case d == 0:
			continue
		case d > 0:
			if p.Hi[j] <= 0 {
				return false
			}
			sum += d / p.Hi[j]
		default:
			if p.Lo[j] >= 0 {
				return false
			}
			sum += d / p.Lo[j] // both negative: positive ratio
		}
	}
	return sum <= 1
}

// Reaches reports whether the line of a tuple with projection proj and
// anchor score score (its score at W) reaches the lowest line of res —
// comes level with it or above — anywhere in the polytope, exactly. That
// lowest line is E_R, the k-th envelope of the k result lines, and as
// their minimum it is concave, so the gap ℓ − E_R is convex and peaks at
// the anchor or at an axis vertex. Per result line r, with
// c = proj − r.Proj, that peak is
//
//	score − r.Score + max(0, max_j max(Hi_j·c_j, Lo_j·c_j)),
//
// O(k·qlen) and no sweep. It is evaluated in float64 against its forward
// error bound — each difference and product rounds once, then the sum:
// under 3u of |score − r.Score| + max, u = 2⁻⁵³; the bound takes 4u, as
// geom's predicates do — and only inside the bound is the gap at each
// vertex decided exactly (geom.Sign). The bounds round inward, so a line
// that meets E_R only at an exact region bound outside them does not
// reach. The last result line, usually the tightest, is tried first.
// proj must be parallel to W.
func (p Polytope) Reaches(res []topk.Scored, score float64, proj []float64) bool {
	if len(proj) != len(p.W) {
		panic("core: Polytope.Reaches projection length mismatch")
	}
	for i := len(res) - 1; i >= 0; i-- {
		r := res[i]
		d, extra := score-r.Score, 0.0
		for j, pj := range proj {
			if c := pj - r.Proj[j]; c > 0 {
				extra = max(extra, float64(p.Hi[j]*c))
			} else {
				extra = max(extra, float64(p.Lo[j]*c))
			}
		}
		switch gap, bound := d+extra, float64((math.Abs(d)+extra)*0x1p-51)+0x1p-1070; {
		case gap > bound:
			return true
		case !(gap < -bound) && p.reachesAtVertex(r, score, proj):
			return true
		}
	}
	return false
}

// reachesAtVertex decides Reaches for one result line exactly: the gap's
// sign at the anchor and at the one vertex per dimension on c_j's side.
func (p Polytope) reachesAtVertex(r topk.Scored, score float64, proj []float64) bool {
	if score >= r.Score {
		return true
	}
	for j, pj := range proj {
		x := p.Hi[j]
		if pj < r.Proj[j] {
			x = p.Lo[j]
		}
		if geom.Sign(geom.Line{A: score, B: pj}, geom.Line{A: r.Score, B: r.Proj[j]}, geom.At(x)) >= 0 {
			return true
		}
	}
	return false
}
