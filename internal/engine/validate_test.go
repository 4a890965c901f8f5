package engine

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
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
