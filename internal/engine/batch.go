// Batch execution: AnalyzeBatch and TopKBatch are a fan-out over the
// worker pool around the one read pipeline of engine.go. The paper's §1
// refinement scenario at fleet scale produces heavily repeated weight
// vectors — many clients exploring the same rankings — so identical
// analysis requests within one batch are de-duplicated before anything
// else (answered once, shared as SourceDeduped); every distinct request
// is then probed exactly as a single one is, so repeats across batches
// are served at cache speed too. What the probe leaves runs concurrently:
// each analysis as its own job, exactly as it would alone, and ranked
// queries grouped into units by subspace (identical dimension set) and
// k, one fused scan (topk.Multi) each.
package engine

import (
	"context"
	"encoding/binary"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/topk"
	"repro/internal/vec"
)

// BatchItem is one analysis request of a batch.
type BatchItem struct {
	Q    vec.Query
	K    int
	Opts Options
}

// BatchResult is the per-item outcome; exactly one of Analysis and Err
// is set. One invalid or failed item does not fail its batch.
type BatchResult struct {
	Analysis *Analysis
	Err      error
}

// itemKey is the identity under which requests of one batch share an
// answer: what the cache would match them on — subspace+k, the options
// that select the output (sig), the exact weight bits.
func itemKey(it BatchItem) string {
	buf := []byte(keyOf(it.Q, it.K))
	buf = binary.AppendVarint(buf, int64(it.Opts.Phi))
	var flags int64
	if it.Opts.CompositionOnly {
		flags |= 1
	}
	buf = binary.AppendVarint(buf, flags)
	for _, w := range it.Q.Weights {
		buf = binary.AppendUvarint(buf, math.Float64bits(w))
	}
	return string(buf)
}

// fanOut calls do(0) … do(n-1) concurrently, up to the worker-pool
// capacity (a CPU-shaped default when the pool is unlimited), and
// returns when every call has.
func (e *Engine) fanOut(n int, do func(i int)) {
	workers := 4 * runtime.GOMAXPROCS(0)
	if e.sem != nil {
		workers = cap(e.sem)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				do(i)
			}
		}()
	}
	wg.Wait()
}

// AnalyzeBatch answers every item and returns results aligned with the
// input slice. Distinct queries run concurrently, up to the engine's
// worker-pool width, each exactly as Analyze runs it; duplicates of an
// item share its answer. A NoCache item asked for a computation of its
// own and is never anyone's duplicate. ctx cancels the whole batch:
// items not yet finished report the context's error.
func (e *Engine) AnalyzeBatch(ctx context.Context, items []BatchItem) []BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	mQueries.Add("analyze", int64(len(items)))

	// De-duplicate: the first occurrence of each identity becomes a job,
	// the rest alias it. jobs never grows past its capacity, so pointers
	// into it stay valid.
	jobs := make([]analysisJob, 0, len(items))
	owner := make([]int, len(items)) // items[i] is answered by jobs[owner[i]]
	byKey := make(map[string]int, len(items))
	for i, it := range items {
		if !it.Opts.NoCache {
			key := itemKey(it)
			if j, ok := byKey[key]; ok {
				owner[i] = j
				continue
			}
			byKey[key] = len(jobs)
		}
		owner[i] = len(jobs)
		jobs = append(jobs, analysisJob{BatchItem: it, first: i})
	}

	var todo []*analysisJob
	for i := range jobs {
		if !e.probeAnalyze(&jobs[i]) {
			todo = append(todo, &jobs[i])
		}
	}
	e.fanOut(len(todo), func(i int) { e.executeAnalyze(ctx, todo[i]) })

	results := make([]BatchResult, len(items))
	for i := range items {
		j := &jobs[owner[i]]
		if j.first == i || j.res.Err != nil {
			results[i] = j.res
			continue
		}
		// Share the answer but zero the metrics, matching cache hits:
		// summing per-item I/O over a batch must not double-count the
		// one computation.
		a := j.res.Analysis
		dedup := &core.Output{Query: a.Query, K: a.K, Result: a.Result, Regions: a.Regions}
		results[i] = BatchResult{Analysis: &Analysis{Output: dedup, Source: SourceDeduped}}
	}
	return results
}

// TopKItem is one ranked-query request of a TopKBatch.
type TopKItem struct {
	Q vec.Query
	K int
}

// TopKResult is the per-item outcome of a TopKBatch; Err is non-nil
// when the item failed (the other fields are then zero).
type TopKResult struct {
	Result []topk.Scored
	Source Source
	Err    error
}

// TopKBatch answers a slice of ranked queries. Items whose weights fall
// inside a cached analysis' immutable regions are served from the cache
// (SourceCacheRegion, zero index I/O); the rest are grouped by subspace
// and k, each group answered by one fused scan, groups running
// concurrently up to the worker-pool width. A 16-member shared-subspace
// batch therefore costs roughly one scan instead of sixteen.
func (e *Engine) TopKBatch(ctx context.Context, items []TopKItem) []TopKResult {
	if ctx == nil {
		ctx = context.Background()
	}
	mQueries.Add("topk", int64(len(items)))
	jobs := make([]topkJob, len(items))
	for i, it := range items {
		jobs[i].TopKItem = it
	}
	// Group what the probe leaves into units by subspace and k, in order
	// of first appearance.
	var units [][]*topkJob
	groups := make(map[bucketKey]int, len(jobs))
	for i := range jobs {
		j := &jobs[i]
		if e.probeTopK(j) {
			continue
		}
		gk := keyOf(j.Q, j.K)
		u, ok := groups[gk]
		if !ok {
			u = len(units)
			groups[gk] = u
			units = append(units, nil)
		}
		units[u] = append(units[u], j)
	}
	e.fanOut(len(units), func(i int) { e.executeTopK(ctx, units[i]) })

	results := make([]TopKResult, len(items))
	for i := range jobs {
		results[i] = TopKResult{Result: jobs[i].res, Source: jobs[i].info.Source, Err: jobs[i].err}
	}
	return results
}
