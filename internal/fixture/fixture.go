// Package fixture provides shared test inputs: the paper's running
// example (Fig. 1/2/5) with its exactly-known immutable regions, and
// random general-position cases for property-based cross-validation.
package fixture

import (
	"math/rand"

	"repro/internal/vec"
)

// RunningExample returns the dataset, query and k of the paper's Fig. 1:
// d1=(0.8,0.32), d2=(0.7,0.5), d3=(0.1,0.8), d4=(0.1,0.6), q=(0.8,0.5),
// k=2. The top-2 result is [d2, d1] (ids 1, 0), the candidate list [d3]
// (id 2), IR1=(−16/35, 0.1), IR2=(−1/18, 0.5).
func RunningExample() (tuples []vec.Sparse, q vec.Query, k int) {
	tuples = []vec.Sparse{
		vec.FromDense([]float64{0.8, 0.32}), // d1, id 0
		vec.FromDense([]float64{0.7, 0.5}),  // d2, id 1
		vec.FromDense([]float64{0.1, 0.8}),  // d3, id 2
		vec.FromDense([]float64{0.1, 0.6}),  // d4, id 3
	}
	q = vec.MustQuery([]int{0, 1}, []float64{0.8, 0.5})
	return tuples, q, 2
}

// Case is one randomized test scenario in general position: every tuple
// is non-zero on at least one query dimension, so TA's view of the
// ranking agrees with the naive one for any k ≤ n.
type Case struct {
	Tuples []vec.Sparse
	M      int
	Q      vec.Query
	K      int
}

// RandCase draws a scenario: n tuples in m dimensions, a qlen-dimension
// query, and k. density controls how many extra (non-query) coordinates
// each tuple carries; sparsity within query dimensions varies per tuple
// so that all three candidate classes (C0/CH/CL) occur.
func RandCase(rng *rand.Rand, n, m, qlen, k int) Case {
	if qlen > m {
		qlen = m
	}
	dims := rng.Perm(m)[:qlen]
	weights := make([]float64, qlen)
	for i := range weights {
		weights[i] = 0.05 + float64(0.95*rng.Float64())
	}
	q := vec.MustQuery(dims, weights)

	tuples := make([]vec.Sparse, n)
	for i := range tuples {
		var entries []vec.Entry
		// Choose how many query dimensions this tuple is non-zero on:
		// 1 with p=1/2 (C0/CH material), otherwise 2..qlen (CL material).
		nz := 1
		if qlen > 1 && rng.Float64() < 0.5 {
			nz = 2 + rng.Intn(qlen-1)
		}
		perm := rng.Perm(qlen)
		for _, p := range perm[:nz] {
			entries = append(entries, vec.Entry{Dim: q.Dims[p], Val: 0.05 + float64(0.95*rng.Float64())})
		}
		// Sprinkle non-query coordinates (they never affect scores).
		for d := 0; d < m; d++ {
			if q.Pos(d) >= 0 {
				continue
			}
			if rng.Float64() < 0.3 {
				entries = append(entries, vec.Entry{Dim: d, Val: rng.Float64()})
			}
		}
		t, err := vec.NewSparse(entries)
		if err != nil {
			panic(err)
		}
		tuples[i] = t
	}
	return Case{Tuples: tuples, M: m, Q: q, K: k}
}
