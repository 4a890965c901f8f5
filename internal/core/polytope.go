package core

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/topk"
	"repro/internal/vec"
)

// This file implements the query-vector-space view of result validity
// (the paper's Fig. 3 and footnote 1): the set of weight vectors w for
// which the ranked top-k of the current query is preserved is the
// intersection of half-spaces
//
//	w · (d_α − d_{α+1}) ≥ 0   for consecutive result pairs, and
//	w · (d_k − d_β)     ≥ 0   for the k-th result tuple vs every
//	                          non-result tuple,
//
// clipped to the weight domain. In two dimensions the polygon is cheap
// to build exactly; in higher dimensions §2 notes the complexity is
// Ω(n^⌈m/2⌉), which is why the paper (and this library) isolates one
// dimension at a time — footnote 1 then observes that the cross-polytope
// spanned by the per-dimension immutable-region endpoints is a safe
// region for *concurrent* weight modifications.

// ValidityPolygon2D computes the exact preservation polygon of a
// two-dimensional query over the weight domain [0,1]², by brute force
// over all tuples (the construction of Fig. 3, with the same cost
// profile the paper criticizes: every non-result tuple contributes a
// half-plane). The polygon is counter-clockwise and contains the query's
// weight vector.
func ValidityPolygon2D(tuples []vec.Sparse, q vec.Query, k int) ([]geom.Point, error) {
	if q.Len() != 2 {
		return nil, fmt.Errorf("core: ValidityPolygon2D needs qlen=2, have %d", q.Len())
	}
	ranked := topk.TopKNaive(tuples, q, len(tuples))
	if k > len(ranked) {
		k = len(ranked)
	}
	var hs []geom.Halfplane
	add := func(above, below topk.Scored) {
		// Preserve w·above ≥ w·below ⇔ (below − above)·w ≤ 0.
		hs = append(hs, geom.Halfplane{
			A: below.Proj[0] - above.Proj[0],
			B: below.Proj[1] - above.Proj[1],
			C: 0,
		})
	}
	for a := 0; a+1 < k; a++ {
		add(ranked[a], ranked[a+1])
	}
	dk := ranked[k-1]
	for _, cand := range ranked[k:] {
		add(dk, cand)
	}
	poly := geom.IntersectHalfplanes(hs, 0, 0, 1, 1)
	if len(poly) == 0 {
		return nil, fmt.Errorf("core: empty validity polygon (degenerate ties at rank k?)")
	}
	return poly, nil
}

// AxisProjections returns, for each query dimension, the two points
// where the immutable-region bounds touch the validity boundary in
// weight space (the red crosses of Fig. 3): the query vector with qj
// shifted to qj+lj and to qj+uj. Points are expressed in the query
// subspace, parallel to q.Dims.
func AxisProjections(q vec.Query, regions []Regions) [][]float64 {
	var out [][]float64
	for _, reg := range regions {
		for _, dev := range []float64{reg.Lo, reg.Hi} {
			w := append([]float64(nil), q.Weights...)
			w[reg.QPos] += dev
			out = append(out, w)
		}
	}
	return out
}

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
