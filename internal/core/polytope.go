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
	ext := make([]float64, 2*len(regions))
	lo, hi := ext[:len(regions)], ext[len(regions):]
	for i, reg := range regions {
		lo[i], hi[i] = reg.Lo, reg.Hi
	}
	return vec.CrossSafe(lo, hi, devs), nil
}
