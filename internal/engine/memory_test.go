package engine

import (
	"context"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/topk"
	"repro/internal/vec"
)

// liveHeap returns the heap in use after a full collection. Two cycles:
// sync.Pool contents survive the first one in the victim cache, and the
// pooled per-query scratch is not what this measures.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestCacheBytesMatchRetention: what the cache reports is what it
// retains. 512 never-repeated analyses over ST n = 50 000 are admitted
// and every other reference dropped; the live heap may then have grown
// by at most 1.5 × CacheStats.Bytes plus a fixed slack. Before answers
// were detached from their scans each entry pinned every tuple its TA
// run had encountered, and the growth was ~80× the reported bytes.
func TestCacheBytesMatchRetention(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 50 000-tuple dataset")
	}
	const (
		misses = 512
		slack  = 512 << 10
	)
	ds := dataset.GenerateST(dataset.STConfig{N: 50000, Seed: 7})
	eng := New(ds.Index(), Config{MaxConcurrent: -1})
	rng := rand.New(rand.NewSource(8))
	queries := make([]vec.Query, misses)
	for i := range queries {
		dims := rng.Perm(ds.M)[:4]
		weights := make([]float64, len(dims))
		for j := range weights {
			weights[j] = 0.1 + 0.9*rng.Float64()
		}
		queries[i] = vec.MustQuery(dims, weights)
	}
	// One warm-up analysis outside the measured span, so one-time
	// allocations (metric children, the pools' first objects) are in the
	// baseline; it is evicted from the accounting below by subtraction.
	analyzeMust(t, eng, vec.MustQuery([]int{0, 1, 2, 3}, []float64{0.5, 0.5, 0.5, 0.5}), 10, Options{})
	before, bytesBefore := liveHeap(), eng.CacheStats().Bytes

	for i, q := range queries {
		opts := Options{Options: core.Options{Method: core.MethodCPT}}
		if i%4 == 3 {
			opts.Phi = 2
		}
		if a := analyzeMust(t, eng, q, 10, opts); a.Source != SourceComputed {
			t.Fatalf("query %d: source %v, want a miss", i, a.Source)
		}
	}
	queries = nil

	after, st := liveHeap(), eng.CacheStats()
	if st.Entries != misses+1 {
		t.Fatalf("%d entries resident, want %d", st.Entries, misses+1)
	}
	growth := int64(after) - int64(before)
	reported := st.Bytes - bytesBefore
	t.Logf("live heap grew %d B for %d B of reported cache bytes (%.2f×), %d B/entry",
		growth, reported, float64(growth)/float64(reported), reported/misses)
	if limit := reported*3/2 + slack; growth > limit {
		t.Fatalf("live heap grew %d B, cache reports %d B (limit %d): entries retain more than they count", growth, reported, limit)
	}
	// The other direction: the count is not a gross over-estimate either.
	if growth < reported/2 {
		t.Fatalf("live heap grew %d B, cache reports %d B: entries count more than they retain", growth, reported)
	}
	runtime.KeepAlive(eng)
}

// checkDetached asserts a returned answer is intact — no NaN/-1 from a
// poisoned scratch (TestMain turns poisoning on) — and bit-equal to the
// exhaustive oracle.
func checkDetached(t *testing.T, what string, got []topk.Scored, tuples []vec.Sparse, q vec.Query, k int) {
	t.Helper()
	want := topk.TopKNaive(tuples, q, k)
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i, sc := range got {
		if sc.ID != want[i].ID || sc.Score != want[i].Score {
			t.Fatalf("%s rank %d: %+v, want %+v", what, i, sc, want[i])
		}
		for j, v := range sc.Proj {
			if math.IsNaN(v) || v != want[i].Proj[j] {
				t.Fatalf("%s rank %d: projection %v, want %v (aliases recycled scratch?)", what, i, sc.Proj, want[i].Proj)
			}
		}
	}
}

// TestAnswersDetachedFromScratch: every way a result leaves the engine
// — computed and cached analyses, region hits, ranked queries, both
// batch paths, the shard-side imposed analysis — hands out memory of its
// own. By the time the caller sees an answer the run's scratch has been
// released and poisoned, so an alias shows up as NaN.
func TestAnswersDetachedFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ctx := context.Background()
	for trial := 0; trial < 10; trial++ {
		cs := fixture.RandCase(rng, 150+rng.Intn(150), 8, 2+rng.Intn(4), 2+rng.Intn(6))
		eng := New(lists.NewMemIndex(cs.Tuples, cs.M), Config{})
		opts := Options{Options: core.Options{Method: core.Methods[trial%len(core.Methods)], Phi: trial % 3}}

		miss := analyzeMust(t, eng, cs.Q, cs.K, opts)
		hit := analyzeMust(t, eng, cs.Q, cs.K, opts)
		if hit.Source != SourceCache {
			t.Fatalf("trial %d: repeat analysis source %v", trial, hit.Source)
		}
		region, info, err := eng.TopKMetered(ctx, cs.Q, cs.K)
		if err != nil || info.Source != SourceCacheRegion {
			t.Fatalf("trial %d: topk src %v err %v", trial, info.Source, err)
		}
		nocache := New(lists.NewMemIndex(cs.Tuples, cs.M), Config{CacheEntries: -1})
		ranked, _, err := nocache.TopKMetered(ctx, cs.Q, cs.K)
		if err != nil {
			t.Fatal(err)
		}
		traced, _, err := nocache.TopKTrace(ctx, cs.Q, cs.K)
		if err != nil {
			t.Fatal(err)
		}

		// Same-subspace variants: fused scans in both batch paths.
		variants := []vec.Query{cs.Q}
		for v := 0; v < 3; v++ {
			w := make([]float64, cs.Q.Len())
			for j := range w {
				w[j] = 0.05 + 0.9*rng.Float64()
			}
			variants = append(variants, vec.Query{Dims: cs.Q.Dims, Weights: w})
		}
		items := make([]BatchItem, len(variants))
		titems := make([]TopKItem, len(variants))
		for i, q := range variants {
			items[i] = BatchItem{Q: q, K: cs.K, Opts: Options{Options: opts.Options, NoCache: true}}
			titems[i] = TopKItem{Q: q, K: cs.K}
		}
		batch := eng.AnalyzeBatch(ctx, items)
		tbatch := nocache.TopKBatch(ctx, titems)

		imposedOut, lines, err := nocache.AnalyzeImposed(ctx, cs.Q, cs.K, 0, ranked, opts)
		if err != nil {
			t.Fatal(err)
		}

		// Churn: more queries take and poison the pooled scratch again.
		for i := 0; i < 4; i++ {
			other := fixture.RandCase(rng, 200, 8, 3, 4)
			analyzeMust(t, New(lists.NewMemIndex(other.Tuples, other.M), Config{}), other.Q, other.K, Options{})
		}

		checkDetached(t, "computed analysis", miss.Result, cs.Tuples, cs.Q, cs.K)
		checkDetached(t, "cached analysis", hit.Result, cs.Tuples, cs.Q, cs.K)
		checkDetached(t, "region hit", region, cs.Tuples, cs.Q, cs.K)
		checkDetached(t, "ranked query", ranked, cs.Tuples, cs.Q, cs.K)
		checkDetached(t, "traced query", traced, cs.Tuples, cs.Q, cs.K)
		checkDetached(t, "imposed analysis", imposedOut.Result, cs.Tuples, cs.Q, cs.K)
		for i, q := range variants {
			if batch[i].Err != nil || tbatch[i].Err != nil {
				t.Fatalf("trial %d batch item %d: %v / %v", trial, i, batch[i].Err, tbatch[i].Err)
			}
			checkDetached(t, "batch analysis", batch[i].Analysis.Result, cs.Tuples, q, cs.K)
			checkDetached(t, "batch ranked query", tbatch[i].Result, cs.Tuples, q, cs.K)
		}
		for _, ln := range lines {
			if ln.ID < 0 || math.IsNaN(ln.Score) || vec.Dot(cs.Q.Weights, ln.Proj) != ln.Score {
				t.Fatalf("trial %d: contributed line %+v aliases recycled scratch", trial, ln)
			}
		}
	}
}

// TestMissAllocsIndependentOfAccesses is the allocation budget of the
// miss path where it is real: a mapped DiskIndex under an empty Overlay
// (what irserver -wal serves), ST n = 20 000. The same never-repeated
// query stream is answered by CPT and by Scan; Scan pays thousands more
// random accesses per query (it evaluates every candidate in every
// dimension) and must not pay allocations for them — a random access
// projects from the record into memory the query already owns. When
// each access materialized the tuple, every one of them allocated.
func TestMissAllocsIndependentOfAccesses(t *testing.T) {
	ds := dataset.GenerateST(dataset.STConfig{N: 20000, Seed: 103})
	dir := t.TempDir()
	tp, lp := filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")
	if err := ds.Save(tp, lp); err != nil {
		t.Fatal(err)
	}
	disk, err := lists.OpenDiskIndex(tp, lp)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	ix := lists.NewOverlay(disk)

	// Every run asks about a subspace of its own (a window of four
	// consecutive dimensions), so with the cache on each one is a miss.
	const runs = 12
	measure := func(method core.Method) (allocs, accesses float64) {
		eng := New(ix, Config{MaxConcurrent: -1})
		rng := rand.New(rand.NewSource(9)) // the same weights for both methods
		opts := Options{Options: core.Options{Method: method}}
		reads0, first := ix.Stats().RandReads(), 0
		allocs = testing.AllocsPerRun(runs, func() {
			q := vec.Query{Dims: []int{first, first + 1, first + 2, first + 3}, Weights: make([]float64, 4)}
			for j := range q.Weights {
				q.Weights[j] = 0.1 + 0.9*rng.Float64()
			}
			first++
			if a := analyzeMust(t, eng, q, 10, opts); a.Source != SourceComputed {
				t.Fatalf("source %v, want a miss", a.Source)
			}
		})
		return allocs, float64(ix.Stats().RandReads()-reads0) / (runs + 1)
	}
	cptAllocs, cptReads := measure(core.MethodCPT)
	scanAllocs, scanReads := measure(core.MethodScan)
	t.Logf("CPT: %.0f allocs, %.0f random accesses per miss; Scan: %.0f allocs, %.0f accesses", cptAllocs, cptReads, scanAllocs, scanReads)
	extra := scanReads - cptReads
	if extra < 2000 {
		t.Fatalf("Scan made only %.0f more random accesses than CPT: the fixture no longer separates them", extra)
	}
	if scanAllocs > cptAllocs+extra/20 {
		t.Fatalf("%.0f more random accesses cost %.0f more allocations", extra, scanAllocs-cptAllocs)
	}
}
