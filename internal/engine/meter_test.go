package engine

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/topk"
	"repro/internal/vec"
)

// TestStatsTotalsAreTheSumOfQueryDeltas: a query's meter passes its
// charges on to the engine-wide one only when the query ends, so the
// contract to pin is the one /stats readers rely on: once the engine is
// quiescent, the totals have moved by exactly the sum of what the
// queries reported for themselves — on every read path, with several
// queries in flight at once. The index is in memory, whose page charges
// are deterministic, and the cache is off, so every query computes.
func TestStatsTotalsAreTheSumOfQueryDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cs := fixture.RandCase(rng, 3000, 12, 3, 5)
	eng := New(lists.NewMemIndex(cs.Tuples, cs.M), Config{CacheEntries: -1})
	ctx := context.Background()
	opts := Options{Options: core.Options{Method: core.MethodCPT, Phi: 1}}

	// Queries over pairwise distinct subspaces, and one group over a
	// shared subspace (which a top-k batch fuses into one scan; an
	// analysis batch runs each item's scan on its own).
	var distinct []vec.Query
	for first := 0; first+3 <= cs.M; first++ {
		distinct = append(distinct, vec.MustQuery([]int{first, first + 1, first + 2},
			[]float64{0.1 + 0.9*rng.Float64(), 0.1 + 0.9*rng.Float64(), 0.1 + 0.9*rng.Float64()}))
	}
	var shared []vec.Query
	for i := 0; i < 4; i++ {
		q := distinct[0].Clone()
		for j := range q.Weights {
			q.Weights[j] = 0.1 + 0.9*rng.Float64()
		}
		shared = append(shared, q)
	}

	// moved runs fn and returns how far it moved the engine-wide totals.
	moved := func(fn func()) (seq, rnd int64) {
		seq0, rnd0, _ := eng.Stats().Snapshot()
		fn()
		seq1, rnd1, _ := eng.Stats().Snapshot()
		return seq1 - seq0, rnd1 - rnd0
	}
	// concurrently runs one query per goroutine and sums what each
	// reports for itself.
	concurrently := func(qs []vec.Query, one func(q vec.Query) (seq, rnd int64)) (seq, rnd int64) {
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, q := range qs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, r := one(q)
				mu.Lock()
				seq, rnd = seq+s, rnd+r
				mu.Unlock()
			}()
		}
		wg.Wait()
		return seq, rnd
	}
	check := func(path string, gotSeq, gotRnd, wantSeq, wantRnd int64) {
		t.Helper()
		if gotRnd == 0 || gotSeq == 0 {
			t.Fatalf("%s: the totals did not move (seq %d, rand %d)", path, gotSeq, gotRnd)
		}
		if gotSeq != wantSeq || gotRnd != wantRnd {
			t.Fatalf("%s: totals moved by seq %d rand %d, the queries reported seq %d rand %d", path, gotSeq, gotRnd, wantSeq, wantRnd)
		}
	}

	// A plain top-k reports its whole cost. An analysis reports the
	// region phases only (core.Metrics brackets ComputeView after the
	// scan), so what it moves the totals by is that plus the scan — which
	// is the same query's top-k cost, the index being deterministic.
	scan := map[*float64][2]int64{} // by the query's weight array
	var topkSeq, topkRnd int64
	seq, rnd := moved(func() {
		var mu sync.Mutex
		topkSeq, topkRnd = concurrently(distinct, func(q vec.Query) (int64, int64) {
			_, info, err := eng.TopKMetered(ctx, q, cs.K)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			scan[&q.Weights[0]] = [2]int64{info.SeqPages, info.RandReads}
			mu.Unlock()
			return info.SeqPages, info.RandReads
		})
	})
	check("TopKMetered", seq, rnd, topkSeq, topkRnd)

	var wantSeq, wantRnd int64
	seq, rnd = moved(func() {
		wantSeq, wantRnd = concurrently(distinct, func(q vec.Query) (int64, int64) {
			a := analyzeMust(t, eng, q, cs.K, opts)
			return a.Metrics.SeqPages, a.Metrics.RandReads
		})
	})
	check("Analyze", seq, rnd, wantSeq+topkSeq, wantRnd+topkRnd)

	// A batch item reports no I/O of its own on the top-k path; the same
	// queries just reported it one by one.
	items := make([]TopKItem, len(distinct))
	for i, q := range distinct {
		items[i] = TopKItem{Q: q, K: cs.K}
	}
	seq, rnd = moved(func() {
		for _, r := range eng.TopKBatch(ctx, items) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	})
	check("TopKBatch", seq, rnd, topkSeq, topkRnd)

	// Every batch item runs its own scan, which no item reports: the
	// same query's top-k cost, as above.
	for _, q := range shared {
		_, info, err := eng.TopKMetered(ctx, q, cs.K)
		if err != nil {
			t.Fatal(err)
		}
		scan[&q.Weights[0]] = [2]int64{info.SeqPages, info.RandReads}
	}
	var batch []BatchItem
	wantSeq, wantRnd = 0, 0
	for _, q := range append(append([]vec.Query(nil), distinct[1:]...), shared...) {
		batch = append(batch, BatchItem{Q: q, K: cs.K, Opts: opts})
		wantSeq, wantRnd = wantSeq+scan[&q.Weights[0]][0], wantRnd+scan[&q.Weights[0]][1]
	}
	seq, rnd = moved(func() {
		for _, r := range eng.AnalyzeBatch(ctx, batch) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			wantSeq, wantRnd = wantSeq+r.Analysis.Metrics.SeqPages, wantRnd+r.Analysis.Metrics.RandReads
		}
	})
	check("AnalyzeBatch", seq, rnd, wantSeq, wantRnd)

	seq, rnd = moved(func() {
		wantSeq, wantRnd = concurrently(distinct, func(q vec.Query) (int64, int64) {
			res, _, err := eng.TopKMetered(ctx, q, cs.K)
			if err != nil {
				t.Error(err)
				return 0, 0
			}
			out, _, err := eng.AnalyzeImposed(ctx, q, cs.K, 0, topk.Compact(res), opts)
			if err != nil {
				t.Error(err)
				return 0, 0
			}
			return out.Metrics.SeqPages, out.Metrics.RandReads
		})
	})
	// Two scans per query moved the totals too: TopKMetered's and the
	// imposed analysis' own.
	check("AnalyzeImposed", seq, rnd, wantSeq+2*topkSeq, wantRnd+2*topkRnd)
}
