// Package stb implements the sensitivity measure the paper positions
// itself against (§2, Fig. 3): the STB side-problem of Soliman et al.
// ("Ranking with uncertain scoring functions", SIGMOD 2011). Given query
// vector q and the ranked top-k result, every ordering constraint — each
// consecutive result pair, and the k-th result tuple against every
// non-result tuple — defines a half-space of the query-weight subspace
// in which the constraint holds; its boundary hyperplane passes through
// the origin with normal (dα − dβ) projected on the query dimensions.
// The radius ρ is the minimum distance from q to any of these
// hyperplanes: within the ball B(q, ρ) the ranked result is preserved.
//
// As the paper notes, STB must scan all non-result tuples (like the Scan
// baseline), and moving q outside the ball does not say what the result
// becomes — the two shortcomings immutable regions address. The package
// exists as the comparator for those claims; its tests check the ball
// against internal/oracle's exact ranking.
package stb

import (
	"math"

	"repro/internal/geom"
	"repro/internal/topk"
	"repro/internal/vec"
)

// Constraint names the pair of tuples whose ordering binds the radius.
type Constraint struct {
	Above, Below int
	Distance     float64
}

// Result is the STB sensitivity analysis of one query.
type Result struct {
	Rho     float64
	Binding Constraint // the constraint at distance Rho
	Scanned int        // non-result tuples examined (always all of them)
}

// Radius computes ρ for the ranked top-k of q over tuples by brute-force
// scan, the method's inherent cost profile.
func Radius(tuples []vec.Sparse, q vec.Query, k int) Result {
	ranked := topk.TopKNaive(tuples, q, len(tuples))
	if k > len(ranked) {
		k = len(ranked)
	}
	qw := q.Weights
	res := Result{Rho: math.Inf(1)}

	consider := func(above, below topk.Scored) {
		h := geom.Hyperplane{N: diff(above.Proj, below.Proj), C: 0}
		d := h.Distance(qw)
		if d < res.Rho {
			res.Rho = d
			res.Binding = Constraint{Above: above.ID, Below: below.ID, Distance: d}
		}
	}

	// Ordering within the result.
	for a := 0; a+1 < k; a++ {
		consider(ranked[a], ranked[a+1])
	}
	// The k-th result tuple against every non-result tuple.
	dk := ranked[k-1]
	for _, cand := range ranked[k:] {
		consider(dk, cand)
		res.Scanned++
	}
	return res
}

func diff(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}
