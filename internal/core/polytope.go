package core

import (
	"fmt"

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

// ReachTol is the one region tolerance: how far below the result's
// lowest line a line may stay and still count as reaching it. A line
// that defines a region bound meets that line exactly at a polytope
// vertex, but re-evaluated from the stored bound and scores the gap
// rounds to ulp-scale noise of either sign (TestReachTolDerived measures
// it); the tolerance keeps such lines on the reaching side. It is orders
// of magnitude above that rounding (scores are O(qlen)) and far below
// any gap in untied data.
const ReachTol = 1e-9

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
// anchor score score (its score at W) comes within ReachTol of the
// lowest line of res anywhere in the polytope. That lowest line is E_R,
// the k-th envelope of the k result lines, and as their minimum it is
// concave, so the gap ℓ − E_R is convex and peaks at the anchor or at
// an axis vertex. Per result line r, with c = proj − r.Proj, that peak
// is
//
//	score − r.Score + max(0, max_j max(Hi_j·c_j, Lo_j·c_j)),
//
// O(k·qlen) and no sweep. The last result line, usually the tightest,
// is tried first. proj must be parallel to W.
func (p Polytope) Reaches(res []topk.Scored, score float64, proj []float64) bool {
	if len(proj) != len(p.W) {
		panic("core: Polytope.Reaches projection length mismatch")
	}
	for i := len(res) - 1; i >= 0; i-- {
		rp := res[i].Proj
		extra := 0.0
		for j, pj := range proj {
			c := pj - rp[j]
			if v := p.Hi[j] * c; v > extra {
				extra = v
			}
			if v := p.Lo[j] * c; v > extra {
				extra = v
			}
		}
		if score-res[i].Score+extra > -ReachTol {
			return true
		}
	}
	return false
}
