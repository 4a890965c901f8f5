package engine

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/vec"
)

// cachedEntry digs the single cached anchor for (q, k) out of the
// engine, for white-box containment checks.
func cachedEntry(t *testing.T, eng *Engine, q vec.Query, k int) *entry {
	t.Helper()
	bucket := eng.cache.buckets[keyOf(q, k)]
	if len(bucket) != 1 {
		t.Fatalf("bucket holds %d entries, want 1", len(bucket))
	}
	return bucket[0]
}

// TestContainsWeightsBoundaryPinned pins the cache's containment
// semantics to core.SafeConcurrent's CLOSED cross-polytope test, with
// no tolerance of its own: for any weight vector w the cache entry's
// Polytope.Contains must equal SafeConcurrent on the recovered
// deviations w − anchor, and deviations landing exactly on the boundary
// (normalized sum exactly 1) are contained. The end-to-end consequence: the largest representable
// in-region weight still region-serves /topk, the next ulp misses.
func TestContainsWeightsBoundaryPinned(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	eng := memEngine(tuples, 2, Config{})
	a := analyzeMust(t, eng, q, k, Options{Options: core.Options{Method: core.MethodCPT}})
	en := cachedEntry(t, eng, q, k)

	// Deviation-space boundary is closed: a single-axis deviation of
	// exactly Hi (or Lo) normalizes to sum == 1 and is safe; one ulp
	// beyond is not.
	for jx, reg := range a.Regions {
		for _, dev := range []float64{reg.Hi, reg.Lo} {
			devs := make([]float64, q.Len())
			devs[jx] = dev
			if safe, err := core.SafeConcurrent(a.Regions, devs); err != nil || !safe {
				t.Fatalf("dim %d dev %v exactly on boundary: safe=%v err=%v, want contained", reg.Dim, dev, safe, err)
			}
			devs[jx] = math.Nextafter(dev, math.Copysign(math.Inf(1), dev))
			if safe, _ := core.SafeConcurrent(a.Regions, devs); safe {
				t.Fatalf("dim %d dev one ulp past %v still contained", reg.Dim, dev)
			}
		}
	}
	// A mixed deviation whose normalized coordinates sum to exactly 1
	// (powers of two keep the division exact) is on the boundary and
	// contained.
	mixed := []float64{a.Regions[0].Hi * 0.5, a.Regions[1].Hi * 0.5}
	if safe, err := core.SafeConcurrent(a.Regions, mixed); err != nil || !safe {
		t.Fatalf("mixed boundary point: safe=%v err=%v", safe, err)
	}

	// Pin Contains ≡ SafeConcurrent on recovered deviations for a
	// sweep of weight vectors around both bounds of dimension 0 — the
	// cache must not add or lose an epsilon anywhere.
	for _, bound := range []float64{a.Regions[0].Hi, a.Regions[0].Lo} {
		w0 := q.Weights[0] + bound
		for i := -3; i <= 3; i++ {
			w := slices.Clone(q.Weights)
			w[0] = w0
			for s := 0; s < i; s++ {
				w[0] = math.Nextafter(w[0], math.Inf(1))
			}
			for s := 0; s > i; s-- {
				w[0] = math.Nextafter(w[0], math.Inf(-1))
			}
			devs := []float64{w[0] - q.Weights[0], 0}
			want, err := core.SafeConcurrent(a.Regions, devs)
			if err != nil {
				t.Fatal(err)
			}
			if got := en.poly.Contains(w); got != want {
				t.Fatalf("bound %v step %d: Contains=%v, SafeConcurrent=%v", bound, i, got, want)
			}
		}
	}

	// End to end: the largest representable weight still inside the
	// closed region serves /topk from the cache; the next ulp recomputes.
	w0 := q.Weights[0] + a.Regions[0].Hi
	for {
		devs := []float64{w0 - q.Weights[0], 0}
		if safe, _ := core.SafeConcurrent(a.Regions, devs); safe {
			break
		}
		w0 = math.Nextafter(w0, math.Inf(-1))
	}
	inQ := vec.Query{Dims: slices.Clone(q.Dims), Weights: []float64{w0, q.Weights[1]}}
	if _, info, err := eng.TopKMetered(context.Background(), inQ, k); err != nil || info.Source != SourceCacheRegion {
		t.Fatalf("boundary weight: src %v err %v, want region hit", info.Source, err)
	}
	outQ := vec.Query{Dims: slices.Clone(q.Dims), Weights: []float64{math.Nextafter(w0, math.Inf(1)), q.Weights[1]}}
	if _, info, err := eng.TopKMetered(context.Background(), outQ, k); err != nil || info.Source != SourceComputed {
		t.Fatalf("one ulp outside: src %v err %v, want recompute", info.Source, err)
	}
}
