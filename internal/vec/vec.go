// Package vec provides the sparse and dense vector kernel used throughout
// the immutable-region reproduction. Tuples live in [0,1]^m for a
// potentially very large m (the WSJ corpus in the paper has m = 181,978
// dimensions), so the primary representation is a sparse coordinate list
// sorted by dimension. Queries touch only qlen ≪ m dimensions and are
// represented by parallel Dims/Weights slices.
package vec

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Entry is a single non-zero coordinate of a sparse vector (the json
// tags are its form in an /update payload).
type Entry struct {
	Dim int     `json:"dim"` // dimension index, 0-based
	Val float64 `json:"val"` // coordinate value in [0,1]
}

// Sparse is a sparse vector: its entries are sorted by ascending Dim and
// carry strictly positive values. The zero value is the origin.
type Sparse []Entry

// NewSparse builds a Sparse from an unsorted list of entries. Zero-valued
// entries are dropped and duplicate dimensions are rejected.
func NewSparse(entries []Entry) (Sparse, error) {
	s := make(Sparse, 0, len(entries))
	for _, e := range entries {
		if e.Val != 0 {
			s = append(s, e)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].Dim < s[j].Dim })
	for i := 1; i < len(s); i++ {
		if s[i].Dim == s[i-1].Dim {
			return nil, fmt.Errorf("vec: duplicate dimension %d", s[i].Dim)
		}
	}
	return s, nil
}

// MustSparse is NewSparse that panics on error; intended for literals in
// tests and examples.
func MustSparse(entries ...Entry) Sparse {
	s, err := NewSparse(entries)
	if err != nil {
		panic(err)
	}
	return s
}

// FromDense converts a dense coordinate slice to a Sparse vector.
func FromDense(coords []float64) Sparse {
	var s Sparse
	for d, v := range coords {
		if v != 0 {
			s = append(s, Entry{Dim: d, Val: v})
		}
	}
	return s
}

// Get returns the coordinate of s in dimension dim (0 when absent).
func (s Sparse) Get(dim int) float64 {
	i := sort.Search(len(s), func(i int) bool { return s[i].Dim >= dim })
	if i < len(s) && s[i].Dim == dim {
		return s[i].Val
	}
	return 0
}

// NNZ reports the number of non-zero coordinates.
func (s Sparse) NNZ() int { return len(s) }

// MaxDim returns the largest dimension index present, or -1 if s is empty.
func (s Sparse) MaxDim() int {
	if len(s) == 0 {
		return -1
	}
	return s[len(s)-1].Dim
}

// Clone returns a deep copy of s.
func (s Sparse) Clone() Sparse {
	out := make(Sparse, len(s))
	copy(out, s)
	return out
}

// Validate checks the Sparse invariants: sorted unique dims, values in
// (0,1]. It returns the first violation found.
func (s Sparse) Validate() error {
	for i, e := range s {
		if e.Val <= 0 || e.Val > 1 || math.IsNaN(e.Val) {
			return fmt.Errorf("vec: entry %d has value %v outside (0,1]", i, e.Val)
		}
		if e.Dim < 0 {
			return fmt.Errorf("vec: entry %d has negative dimension %d", i, e.Dim)
		}
		if i > 0 && s[i-1].Dim >= e.Dim {
			return fmt.Errorf("vec: entries %d,%d out of order (dims %d,%d)", i-1, i, s[i-1].Dim, e.Dim)
		}
	}
	return nil
}

// String renders the vector as {dim:val, ...} for debugging.
func (s Sparse) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, e := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d:%.4g", e.Dim, e.Val)
	}
	b.WriteByte('}')
	return b.String()
}

// Query is a subspace top-k query: a weight vector with non-zero weights
// only in Dims. Dims are sorted ascending; Weights[i] is the weight of
// Dims[i] and lies in (0,1].
type Query struct {
	Dims    []int
	Weights []float64
}

// NewQuery validates and normalizes (sorts by dimension) a query.
func NewQuery(dims []int, weights []float64) (Query, error) {
	if len(dims) != len(weights) {
		return Query{}, fmt.Errorf("vec: %d dims but %d weights", len(dims), len(weights))
	}
	if len(dims) == 0 {
		return Query{}, fmt.Errorf("vec: empty query")
	}
	type dw struct {
		d int
		w float64
	}
	pairs := make([]dw, len(dims))
	for i := range dims {
		if weights[i] <= 0 || weights[i] > 1 || math.IsNaN(weights[i]) {
			return Query{}, fmt.Errorf("vec: weight %v for dim %d outside (0,1]", weights[i], dims[i])
		}
		pairs[i] = dw{dims[i], weights[i]}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].d < pairs[j].d })
	q := Query{Dims: make([]int, len(pairs)), Weights: make([]float64, len(pairs))}
	for i, p := range pairs {
		if i > 0 && q.Dims[i-1] == p.d {
			return Query{}, fmt.Errorf("vec: duplicate query dimension %d", p.d)
		}
		q.Dims[i] = p.d
		q.Weights[i] = p.w
	}
	return q, nil
}

// MustQuery is NewQuery that panics on error.
func MustQuery(dims []int, weights []float64) Query {
	q, err := NewQuery(dims, weights)
	if err != nil {
		panic(err)
	}
	return q
}

// Len returns qlen, the number of query dimensions.
func (q Query) Len() int { return len(q.Dims) }

// Pos returns the index of dim within q.Dims, or -1.
func (q Query) Pos(dim int) int {
	i := sort.SearchInts(q.Dims, dim)
	if i < len(q.Dims) && q.Dims[i] == dim {
		return i
	}
	return -1
}

// Clone returns a deep copy of q.
func (q Query) Clone() Query {
	return Query{Dims: append([]int(nil), q.Dims...), Weights: append([]float64(nil), q.Weights...)}
}

// Adjust returns a copy of q with the weight of dim shifted by delta.
// The result is clamped to the weight domain [0,1]; callers asking for a
// deviation outside [-qj, 1-qj] get the clamped endpoint.
func (q Query) Adjust(dim int, delta float64) Query {
	out := q.Clone()
	i := out.Pos(dim)
	if i < 0 {
		return out
	}
	w := out.Weights[i] + delta
	if w < 0 {
		w = 0
	}
	if w > 1 {
		w = 1
	}
	out.Weights[i] = w
	return out
}

// Score computes the dot product q · d. Both sides are sorted by
// dimension, so this is a linear merge over the shorter structure.
func (q Query) Score(d Sparse) float64 {
	s := 0.0
	i, j := 0, 0
	for i < len(q.Dims) && j < len(d) {
		switch {
		case q.Dims[i] == d[j].Dim:
			s += float64(q.Weights[i] * d[j].Val)
			i++
			j++
		case q.Dims[i] < d[j].Dim:
			i++
		default:
			j++
		}
	}
	return s
}

// Project returns d's coordinates on the query dimensions, as a dense
// slice parallel to q.Dims. This is the subspace view used by the
// geometry of immutable regions.
func (q Query) Project(d Sparse) []float64 {
	out := make([]float64, len(q.Dims))
	q.ProjectInto(d, out)
	return out
}

// ProjectInto writes d's coordinates on the query dimensions into dst,
// which must have length q.Len(). Hot paths use it with arena-allocated
// destinations to avoid one heap allocation per projected tuple. Each
// slot is written exactly once (the matched value or zero), so there is
// no separate zero-fill pass over dst.
func (q Query) ProjectInto(d Sparse, dst []float64) {
	j := 0
	for i, dim := range q.Dims {
		for j < len(d) && d[j].Dim < dim {
			j++
		}
		if j < len(d) && d[j].Dim == dim {
			dst[i] = d[j].Val
			j++
		} else {
			dst[i] = 0
		}
	}
}

// The dense kernels below are one plain loop per operation, with a single
// accumulator per output and terms added in ascending index order: every
// score, threshold and certificate in the repo is a function of that
// order, so whatever replaces a loop must not reassociate its additions.

// Dot computes the dot product of two dense vectors of equal length.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

// DotBatch scores one dense vector x against many weight rows at once:
// flatW holds len(out) rows of length len(x) back to back, and out[m]
// receives the dot product of row m with x. Each out[m] is bit-identical
// to Dot(row m, x) — the fused batch scan relies on that to produce the
// same floats as Q independent scans.
func DotBatch(flatW, x, out []float64) {
	if len(flatW) != len(x)*len(out) {
		panic(fmt.Sprintf("vec: DotBatch flatW length %d != %d rows × %d", len(flatW), len(out), len(x)))
	}
	q := len(x)
	for m := range out {
		row := flatW[m*q : (m+1)*q]
		s := 0.0
		for j := range row {
			s += float64(row[j] * x[j])
		}
		out[m] = s
	}
}
