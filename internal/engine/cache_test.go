package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/vec"
)

// analyzeMust is a test helper returning the analysis or failing.
func analyzeMust(t *testing.T, eng *Engine, q vec.Query, k int, opts Options) *Analysis {
	t.Helper()
	a, err := eng.Analyze(context.Background(), q, k, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// weightsAt builds a running-example query with the given dim-0 weight.
func weightsAt(w0 float64) vec.Query {
	return vec.MustQuery([]int{0, 1}, []float64{w0, 0.5})
}

// TestCacheEntryBound verifies LRU eviction under the entry-count
// bound: the cache never exceeds it, the oldest anchor goes first, and
// a hit refreshes recency.
func TestCacheEntryBound(t *testing.T) {
	tuples, _, k := fixture.RunningExample()
	eng := memEngine(tuples, 2, Config{CacheEntries: 2})
	opts := Options{Options: core.Options{Method: core.MethodCPT}}

	q1, q2, q3 := weightsAt(0.6), weightsAt(0.7), weightsAt(0.8)
	analyzeMust(t, eng, q1, k, opts)
	analyzeMust(t, eng, q2, k, opts)
	// Touch q1 so q2 is now the LRU tail.
	if a := analyzeMust(t, eng, q1, k, opts); a.Source != SourceCache {
		t.Fatalf("q1 source %v, want hit", a.Source)
	}
	analyzeMust(t, eng, q3, k, opts) // evicts q2

	st := eng.CacheStats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want 2 entries / 1 eviction", st)
	}
	if a := analyzeMust(t, eng, q2, k, opts); a.Source != SourceComputed {
		t.Fatalf("evicted q2 source %v, want recompute", a.Source)
	}
	if a := analyzeMust(t, eng, q1, k, opts); a.Source != SourceComputed {
		// q1 was the tail once q3+q2 were admitted.
		t.Fatalf("q1 source %v, want recompute after falling off", a.Source)
	}
}

// TestCacheByteBound verifies eviction under the byte bound: the
// estimated footprint never exceeds the configured limit no matter how
// many analyses are admitted.
func TestCacheByteBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7004))
	cs := fixture.RandCase(rng, 120, 6, 3, 8)
	// Size the bound to roughly three entries so admission must evict.
	probe := memEngine(cs.Tuples, cs.M, Config{})
	analyzeMust(t, probe, cs.Q, cs.K, Options{Options: core.Options{Method: core.MethodCPT, Phi: 1}})
	oneEntry := probe.CacheStats().Bytes
	if oneEntry <= 0 {
		t.Fatalf("probe entry size %d", oneEntry)
	}
	bound := 3 * oneEntry
	eng := memEngine(cs.Tuples, cs.M, Config{CacheBytes: bound, CacheEntries: 1 << 20})

	opts := Options{Options: core.Options{Method: core.MethodCPT, Phi: 1}}
	for i := 0; i < 12; i++ {
		q := cs.Q.Clone()
		q.Weights[0] = 0.05 + 0.07*float64(i)
		analyzeMust(t, eng, q, cs.K, opts)
		if st := eng.CacheStats(); st.Bytes > bound {
			t.Fatalf("after %d admissions: bytes %d exceed bound %d", i+1, st.Bytes, bound)
		}
	}
	st := eng.CacheStats()
	if st.Evictions == 0 {
		t.Fatalf("stats %+v: expected evictions under byte pressure", st)
	}
	if st.Entries == 0 {
		t.Fatalf("stats %+v: bound evicted everything", st)
	}
}

// TestCacheDisabled ensures CacheEntries < 0 really turns everything
// off: no hits, no stats, no admission.
func TestCacheDisabled(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	eng := memEngine(tuples, 2, Config{CacheEntries: -1})
	opts := Options{Options: core.Options{Method: core.MethodCPT}}
	if a := analyzeMust(t, eng, q, k, opts); a.Source != SourceBypass {
		t.Fatalf("source %v", a.Source)
	}
	if a := analyzeMust(t, eng, q, k, opts); a.Source != SourceBypass {
		t.Fatalf("repeat source %v, want bypass (cache disabled)", a.Source)
	}
	if eng.CacheEnabled() {
		t.Fatal("CacheEnabled with CacheEntries -1")
	}
}

// TestCacheConcurrent hammers one engine from many goroutines — mixed
// analyzes (repeat-heavy, over a cache small enough to keep evicting)
// and region-hit top-k lookups — and checks every response against the
// sequential ground truth. Run under -race this is the cache's
// synchronization proof; TestApplyConcurrentWithQueries covers
// invalidation racing queries.
func TestCacheConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(7006))
	cs := fixture.RandCase(rng, 150, 8, 3, 6)
	eng := memEngine(cs.Tuples, cs.M, Config{CacheEntries: 8})
	opts := Options{Options: core.Options{Method: core.MethodCPT, Phi: 1}}

	// A small workload of distinct weight vectors, with ground truth.
	queries := make([]vec.Query, 6)
	want := make([][]int, len(queries))
	fresh := memEngine(cs.Tuples, cs.M, Config{CacheEntries: -1})
	for i := range queries {
		q := cs.Q.Clone()
		q.Weights[i%q.Len()] = 0.2 + 0.12*float64(i)
		queries[i] = q
		a, err := fresh.Analyze(context.Background(), q, cs.K, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = a.RankedIDs()
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 30; r++ {
				i := (g + r) % len(queries)
				switch r % 3 {
				case 0, 1:
					a, err := eng.Analyze(context.Background(), queries[i], cs.K, opts)
					if err != nil {
						errs <- err
						return
					}
					if got := a.RankedIDs(); !equalInts(got, want[i]) {
						errs <- fmt.Errorf("q%d analyze (src %v): %v want %v", i, a.Source, got, want[i])
						return
					}
				case 2:
					res, _, err := eng.TopKMetered(context.Background(), queries[i], cs.K)
					if err != nil {
						errs <- err
						return
					}
					for j, sc := range res {
						if sc.ID != want[i][j] {
							errs <- fmt.Errorf("q%d topk: %v want %v", i, res, want[i])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
