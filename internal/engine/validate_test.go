package engine

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/topk"
	"repro/internal/vec"
)

// wideEngine builds an engine over a 70-dimension dataset, enough to
// form in-range queries beyond the 64-dimension executor limit.
func wideEngine() *Engine {
	var tuples []vec.Sparse
	for i := 0; i < 4; i++ {
		tuples = append(tuples, vec.MustSparse(vec.Entry{Dim: i, Val: 0.5}, vec.Entry{Dim: 65 + i, Val: 0.25}))
	}
	return memEngine(tuples, 70, Config{})
}

func seq(n int) ([]int, []float64) {
	dims := make([]int, n)
	weights := make([]float64, n)
	for i := range dims {
		dims[i], weights[i] = i, 0.5
	}
	return dims, weights
}

// TestValidateRejectsOversizedQuery: a query with more dimensions than
// the executor's 64-bit partition masks can carry must be rejected as a
// client fault (ErrInvalid), not reach the panic in topk.New.
func TestValidateRejectsOversizedQuery(t *testing.T) {
	eng := wideEngine()
	dims, weights := seq(65)
	q := vec.Query{Dims: dims, Weights: weights}

	if _, err := eng.Analyze(context.Background(), q, 2, Options{}); !errors.Is(err, ErrInvalid) {
		t.Fatalf("Analyze(65 dims) err %v, want ErrInvalid", err)
	}
	if _, _, err := eng.TopKMetered(context.Background(), q, 2); !errors.Is(err, ErrInvalid) {
		t.Fatalf("TopK(65 dims) err %v, want ErrInvalid", err)
	}
	if _, _, err := eng.TopKTrace(context.Background(), q, 2); !errors.Is(err, ErrInvalid) {
		t.Fatalf("TopKTrace(65 dims) err %v, want ErrInvalid", err)
	}

	// Exactly 64 dimensions is the boundary and must execute fine.
	dims, weights = seq(64)
	if _, _, err := eng.TopKMetered(context.Background(), vec.Query{Dims: dims, Weights: weights}, 2); err != nil {
		t.Fatalf("TopK(64 dims): %v", err)
	}
}

// TestValidateRejectsMalformedQueries: hand-built queries that bypass
// vec.NewQuery must still be rejected before they can corrupt the
// executor's mask accounting.
func TestValidateRejectsMalformedQueries(t *testing.T) {
	eng := wideEngine()
	cases := []struct {
		name string
		q    vec.Query
	}{
		{"duplicate dims", vec.Query{Dims: []int{1, 1}, Weights: []float64{0.5, 0.5}}},
		{"unsorted dims", vec.Query{Dims: []int{3, 1}, Weights: []float64{0.5, 0.5}}},
		{"weight count mismatch", vec.Query{Dims: []int{1, 2}, Weights: []float64{0.5}}},
		{"negative weight", vec.Query{Dims: []int{1}, Weights: []float64{-0.5}}},
		{"weight above one", vec.Query{Dims: []int{1}, Weights: []float64{1.5}}},
		{"NaN weight", vec.Query{Dims: []int{1}, Weights: []float64{math.NaN()}}},
	}
	for _, tc := range cases {
		if _, err := eng.Analyze(context.Background(), tc.q, 2, Options{Options: core.Options{Method: core.MethodCPT}}); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err %v, want ErrInvalid", tc.name, err)
		}
		if _, _, err := eng.TopKMetered(context.Background(), tc.q, 2); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: TopK err %v, want ErrInvalid", tc.name, err)
		}
	}
}

// TestAnalyzeImposedRejectsMalformed: an imposed result the region
// phases cannot take for R is a client fault (ErrInvalid), not a panic in
// Phase 2. The well-formed payload beside them is answered.
func TestAnalyzeImposedRejectsMalformed(t *testing.T) {
	tuples := []vec.Sparse{
		vec.MustSparse(vec.Entry{Dim: 0, Val: 0.9}, vec.Entry{Dim: 1, Val: 0.2}),
		vec.MustSparse(vec.Entry{Dim: 0, Val: 0.4}, vec.Entry{Dim: 1, Val: 0.7}),
		vec.MustSparse(vec.Entry{Dim: 0, Val: 0.3}, vec.Entry{Dim: 1, Val: 0.1}),
	}
	eng := memEngine(tuples, 2, Config{CacheEntries: -1})
	q := vec.MustQuery([]int{0, 1}, []float64{0.8, 0.5})
	d0 := topk.Scored{ID: 0, Score: q.Score(tuples[0]), Proj: q.Project(tuples[0])}
	d1 := topk.Scored{ID: 1, Score: q.Score(tuples[1]), Proj: q.Project(tuples[1])}
	with := func(sc topk.Scored, edit func(*topk.Scored)) topk.Scored {
		sc.Proj = slices.Clone(sc.Proj)
		edit(&sc)
		return sc
	}
	for _, c := range []struct {
		name    string
		imposed []topk.Scored
		ok      bool
	}{
		{"ranked", []topk.Scored{d0, d1}, true},
		{"no coordinates", []topk.Scored{with(d0, func(s *topk.Scored) { s.Proj = nil }), d1}, false},
		{"one coordinate too many", []topk.Scored{d0, with(d1, func(s *topk.Scored) { s.Proj = append(s.Proj, 0.5) })}, false},
		{"NaN score", []topk.Scored{with(d0, func(s *topk.Scored) { s.Score = math.NaN() }), d1}, false},
		{"infinite coordinate", []topk.Scored{d0, with(d1, func(s *topk.Scored) { s.Proj[1] = math.Inf(-1) })}, false},
		{"an id twice", []topk.Scored{d0, with(d1, func(s *topk.Scored) { s.ID = 0 })}, false},
		{"score ascending", []topk.Scored{d1, d0}, false},
		{"tie, ids descending", []topk.Scored{with(d0, func(s *topk.Scored) { s.ID = 2 }), with(d1, func(s *topk.Scored) { s.Score = d0.Score })}, false},
		{"more than k", []topk.Scored{d0, d1, d1}, false},
	} {
		_, _, err := eng.AnalyzeImposed(context.Background(), q, 2, 0, c.imposed, Options{Options: core.Options{Phi: 1}})
		if c.ok && err != nil || !c.ok && !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v", c.name, err)
		}
	}
}
