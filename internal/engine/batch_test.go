package engine

import (
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/vec"
)

// TestBatchDedupAndCache covers the batch pipeline end to end:
// duplicates compute once and share the answer, invalid items fail in
// place without sinking the batch, NoCache items stay distinct, and a
// second batch is served from the cache.
func TestBatchDedupAndCache(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	eng := memEngine(tuples, 2, Config{})
	opts := Options{Options: core.Options{Method: core.MethodCPT, Phi: 1}}

	other := vec.MustQuery([]int{0, 1}, []float64{0.6, 0.4})
	items := []BatchItem{
		{Q: q, K: k, Opts: opts},     // computes
		{Q: q, K: k, Opts: opts},     // duplicate of 0
		{Q: other, K: k, Opts: opts}, // computes
		{Q: q, K: 0, Opts: opts},     // invalid
		{Q: q, K: k, Opts: Options{Options: opts.Options, NoCache: true}},                                  // distinct identity
		{Q: q, K: k, Opts: Options{Options: core.Options{Method: core.MethodScan, Phi: 1}, NoCache: true}}, // its own computation too
	}
	res := eng.AnalyzeBatch(context.Background(), items)
	if len(res) != len(items) {
		t.Fatalf("%d results for %d items", len(res), len(items))
	}
	if res[0].Err != nil || res[0].Analysis.Source != SourceComputed {
		t.Fatalf("item 0: %+v", res[0])
	}
	if res[1].Err != nil || res[1].Analysis.Source != SourceDeduped {
		t.Fatalf("item 1: err=%v src=%v, want dedup", res[1].Err, res[1].Analysis.Source)
	}
	if len(res[1].Analysis.Result) == 0 || &res[1].Analysis.Result[0] != &res[0].Analysis.Result[0] {
		t.Fatal("dedup did not share the computed answer")
	}
	if !reflect.DeepEqual(res[1].Analysis.Metrics, core.Metrics{}) {
		// A batch summing per-item I/O must not double-count the one
		// computation.
		t.Fatalf("deduped item carries metrics: %+v", res[1].Analysis.Metrics)
	}
	if res[2].Err != nil || res[2].Analysis.Source != SourceComputed {
		t.Fatalf("item 2: %+v", res[2])
	}
	if !errors.Is(res[3].Err, ErrInvalid) {
		t.Fatalf("item 3 err=%v, want ErrInvalid", res[3].Err)
	}
	if res[4].Err != nil || res[4].Analysis.Source != SourceBypass {
		t.Fatalf("item 4: err=%v src=%v, want bypass", res[4].Err, res[4].Analysis.Source)
	}
	if !reflect.DeepEqual(res[0].Analysis.Regions, res[4].Analysis.Regions) {
		t.Fatal("bypass and cached-path answers diverge")
	}
	// no_cache exists to compare the methods' metering: the same query
	// under another method is computed and metered, not shared.
	if res[5].Err != nil || res[5].Analysis.Source != SourceBypass || res[5].Analysis.Metrics.Evaluated == 0 {
		t.Fatalf("item 5: %+v, want a metered bypass", res[5])
	}

	// Second round: repeats are cache hits, zero index I/O.
	seq0, rnd0, _ := eng.Stats().Snapshot()
	res2 := eng.AnalyzeBatch(context.Background(), items[:3])
	for i, r := range res2 {
		if r.Err != nil {
			t.Fatalf("round 2 item %d: %v", i, r.Err)
		}
	}
	if res2[0].Analysis.Source != SourceCache || res2[2].Analysis.Source != SourceCache {
		t.Fatalf("round 2 sources %v/%v, want hits", res2[0].Analysis.Source, res2[2].Analysis.Source)
	}
	if seq1, rnd1, _ := eng.Stats().Snapshot(); seq1 != seq0 || rnd1 != rnd0 {
		t.Fatal("cached batch touched the index")
	}
}

// TestBatchMatchesSingles proves batch answers are the same analyses
// the single-query path produces, across a mixed random workload.
func TestBatchMatchesSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(7007))
	cs := fixture.RandCase(rng, 100, 7, 3, 5)
	single := memEngine(cs.Tuples, cs.M, Config{CacheEntries: -1})

	var items []BatchItem
	for i := 0; i < 9; i++ {
		q := cs.Q.Clone()
		q.Weights[i%q.Len()] = 0.15 + 0.09*float64(i%7)
		items = append(items, BatchItem{
			Q: q, K: cs.K,
			Opts: Options{Options: core.Options{Method: core.Methods[i%len(core.Methods)], Phi: i % 3}},
		})
	}
	batch := memEngine(cs.Tuples, cs.M, Config{})
	res := batch.AnalyzeBatch(context.Background(), items)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		want, err := single.Analyze(context.Background(), items[i].Q, items[i].K, items[i].Opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.Analysis.Result, want.Result) || !reflect.DeepEqual(r.Analysis.Regions, want.Regions) {
			t.Fatalf("item %d diverges from single-query execution", i)
		}
	}

	// A batch of one IS the single query: the same answer, source and
	// counters (durations aside) and the same I/O on the engine-wide
	// meter, round after round — a miss and then an exact hit with the
	// cache on, two computations with it off — in memory and over the
	// dataset files.
	for _, cacheEntries := range []int{0, -1} {
		for name, pair := range enginePairs(t, cs, Config{CacheEntries: cacheEntries}) {
			for round := 0; round < 2; round++ {
				for i, it := range items {
					want, err := pair[0].Analyze(context.Background(), it.Q, it.K, it.Opts)
					if err != nil {
						t.Fatal(err)
					}
					got := pair[1].AnalyzeBatch(context.Background(), []BatchItem{it})[0]
					if got.Err != nil {
						t.Fatal(got.Err)
					}
					for _, a := range []*Analysis{want, got.Analysis} {
						a.Metrics.Phase1, a.Metrics.Phase2, a.Metrics.Phase3, a.Timings = 0, 0, 0, Timings{}
					}
					if !reflect.DeepEqual(got.Analysis, want) {
						t.Fatalf("%s, cache %d, round %d, item %d: batch of one %+v (%+v), single %+v (%+v)",
							name, cacheEntries, round, i, got.Analysis, got.Analysis.Output, want, want.Output)
					}
					if a, b := pair[0].Stats().String(), pair[1].Stats().String(); a != b {
						t.Fatalf("%s, cache %d, round %d, item %d: single moved the totals to %s, batch of one to %s", name, cacheEntries, round, i, a, b)
					}
				}
			}
		}
	}
}

// enginePairs builds two engines over each of the case's two forms, in
// memory and on disk under a write overlay, for comparing one call path
// with another on identical, separately metered data.
func enginePairs(t *testing.T, cs fixture.Case, cfg Config) map[string][2]*Engine {
	t.Helper()
	dir := t.TempDir()
	tp, lp := filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")
	if err := lists.SaveDataset(tp, lp, cs.Tuples, cs.M); err != nil {
		t.Fatal(err)
	}
	pairs := map[string][2]*Engine{"mem": {memEngine(cs.Tuples, cs.M, cfg), memEngine(cs.Tuples, cs.M, cfg)}}
	var disk [2]*Engine
	for i := range disk {
		eng, err := Open(tp, lp, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		disk[i] = eng
	}
	pairs["disk"] = disk
	return pairs
}

// TestTopKBatch covers the fused ranked-query path: a shared-subspace
// group answers through one scan with results identical to solo TopK
// calls, foreign-subspace and invalid items are handled in place, and
// region-certified cache hits skip the scan entirely.
func TestTopKBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	cs := fixture.RandCase(rng, 300, 8, 4, 5)
	eng := memEngine(cs.Tuples, cs.M, Config{})

	items := make([]TopKItem, 0, 6)
	for i := 0; i < 4; i++ { // fused group: same dims, different weights
		q := cs.Q.Clone()
		for j := range q.Weights {
			q.Weights[j] = 0.1 + 0.2*float64(i+j)/8
		}
		items = append(items, TopKItem{Q: q, K: cs.K})
	}
	otherDims := []int{cs.Q.Dims[0]}
	items = append(items,
		TopKItem{Q: vec.MustQuery(otherDims, []float64{0.7}), K: cs.K}, // own group
		TopKItem{Q: cs.Q, K: 0}, // invalid
	)
	res := eng.TopKBatch(context.Background(), items)
	if len(res) != len(items) {
		t.Fatalf("%d results for %d items", len(res), len(items))
	}
	solo := memEngine(cs.Tuples, cs.M, Config{CacheEntries: -1})
	for i := 0; i < 5; i++ {
		if res[i].Err != nil || res[i].Source != SourceComputed {
			t.Fatalf("item %d: err=%v src=%v", i, res[i].Err, res[i].Source)
		}
		want, _, err := solo.TopKMetered(context.Background(), items[i].Q, items[i].K)
		if err != nil {
			t.Fatal(err)
		}
		if len(res[i].Result) != len(want) {
			t.Fatalf("item %d: %d results, want %d", i, len(res[i].Result), len(want))
		}
		for r := range want {
			if res[i].Result[r].ID != want[r].ID || res[i].Result[r].Score != want[r].Score {
				t.Fatalf("item %d rank %d: fused (%d,%v), solo (%d,%v)",
					i, r, res[i].Result[r].ID, res[i].Result[r].Score, want[r].ID, want[r].Score)
			}
		}
	}
	if !errors.Is(res[5].Err, ErrInvalid) {
		t.Fatalf("invalid item err=%v, want ErrInvalid", res[5].Err)
	}

	// A batch of one IS the single query, with the cache on (a miss,
	// then a region hit once an analysis has primed it) and off.
	for _, cacheEntries := range []int{0, -1} {
		for name, pair := range enginePairs(t, cs, Config{CacheEntries: cacheEntries}) {
			for round := 0; round < 2; round++ {
				for i, it := range items[:5] {
					want, info, err := pair[0].TopKMetered(context.Background(), it.Q, it.K)
					if err != nil {
						t.Fatal(err)
					}
					got := pair[1].TopKBatch(context.Background(), []TopKItem{it})[0]
					if !reflect.DeepEqual(got, TopKResult{Result: want, Source: info.Source}) {
						t.Fatalf("%s, cache %d, round %d, item %d: batch of one %+v, single %+v (%v)", name, cacheEntries, round, i, got, want, info.Source)
					}
					if a, b := pair[0].Stats().String(), pair[1].Stats().String(); a != b {
						t.Fatalf("%s, cache %d, round %d, item %d: single moved the totals to %s, batch of one to %s", name, cacheEntries, round, i, a, b)
					}
				}
				for _, eng := range pair {
					analyzeMust(t, eng, items[0].Q, items[0].K, Options{})
				}
			}
		}
	}

	// Prime the cache with an analysis at item 0's exact weights: the
	// repeat batch serves it by region containment without touching the
	// index, while the rest recompute.
	if _, err := eng.Analyze(context.Background(), items[0].Q, items[0].K, Options{}); err != nil {
		t.Fatal(err)
	}
	seq0, rnd0, _ := eng.Stats().Snapshot()
	res2 := eng.TopKBatch(context.Background(), items[:1])
	if res2[0].Err != nil || res2[0].Source != SourceCacheRegion {
		t.Fatalf("repeat: err=%v src=%v, want region hit", res2[0].Err, res2[0].Source)
	}
	if seq1, rnd1, _ := eng.Stats().Snapshot(); seq1 != seq0 || rnd1 != rnd0 {
		t.Fatal("cached TopKBatch touched the index")
	}
}

// TestBatchCanceled: a canceled context fails every item with the
// context's error rather than hanging or computing — and fails a query
// the same way, down to the wrapping, whether it was sent alone or as a
// batch of one, canceled in the queue or in the middle of its scan.
func TestBatchCanceled(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	eng := memEngine(tuples, 2, Config{CacheEntries: -1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := eng.AnalyzeBatch(ctx, []BatchItem{{Q: q, K: k}, {Q: q, K: k}})
	for i, r := range res {
		if r.Err == nil {
			t.Fatalf("item %d completed under canceled context", i)
		}
	}

	cs := fixture.RandCase(rand.New(rand.NewSource(7004)), 3000, 8, 4, 10)
	opts := Options{Options: core.Options{Method: core.MethodScan, Phi: 2}}
	for _, row := range []struct {
		name  string
		setup func() (*Engine, context.Context)
	}{
		{"queued", func() (*Engine, context.Context) {
			eng := memEngine(cs.Tuples, cs.M, Config{CacheEntries: -1, MaxConcurrent: 1})
			eng.sem <- struct{}{} // the one slot is taken
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return eng, ctx
		}},
		{"mid-scan", func() (*Engine, context.Context) {
			ctx, cancel := context.WithCancel(context.Background())
			t.Cleanup(cancel)
			var left atomic.Int64
			left.Store(1) // canceled by the first random access
			ix := &cancelIndex{Index: lists.NewMemIndex(cs.Tuples, cs.M), cancel: cancel, left: &left}
			return New(ix, Config{CacheEntries: -1}), ctx
		}},
	} {
		for kind, forms := range map[string][2]func(*Engine, context.Context) error{
			"analyze": {
				func(eng *Engine, ctx context.Context) error {
					_, err := eng.Analyze(ctx, cs.Q, cs.K, opts)
					return err
				},
				func(eng *Engine, ctx context.Context) error {
					return eng.AnalyzeBatch(ctx, []BatchItem{{Q: cs.Q, K: cs.K, Opts: opts}})[0].Err
				},
			},
			"topk": {
				func(eng *Engine, ctx context.Context) error {
					_, _, err := eng.TopKMetered(ctx, cs.Q, cs.K)
					return err
				},
				func(eng *Engine, ctx context.Context) error {
					return eng.TopKBatch(ctx, []TopKItem{{Q: cs.Q, K: cs.K}})[0].Err
				},
			},
		} {
			single, batch := forms[0](row.setup()), forms[1](row.setup())
			if !errors.Is(single, context.Canceled) || !errors.Is(batch, context.Canceled) || single.Error() != batch.Error() {
				t.Errorf("%s %s: alone %v, as a batch of one %v: want one wrapping of context.Canceled", row.name, kind, single, batch)
			}
			if row.name == "queued" && !strings.Contains(single.Error(), "while queued") {
				t.Errorf("%s %s: %v did not fail in the queue", row.name, kind, single)
			}
		}
	}
}
