// Batch execution: AnalyzeBatch and TopKBatch answer a slice of
// requests by fanning work over the engine's worker pool. The paper's
// §1 refinement scenario at fleet scale produces heavily repeated
// weight vectors — many clients exploring the same rankings — so the
// batch path is cache-aware twice over: identical requests within one
// batch are de-duplicated before any work is scheduled (computed once,
// shared as SourceDeduped), and each distinct request still goes
// through the cache lookup, so repeats across batches are served at
// cache speed too.
//
// Requests that share a subspace (identical dimension set) and k are
// additionally FUSED: the group runs one shared TA scan (topk.Multi)
// that pays the sorted accesses, the random-access tuple fetches and
// the projections once, scoring every member's weight vector per
// encountered tuple through vec.DotBatch. Each member's
// answer is exactly what its solo execution would produce; for Analyze
// requests, region computation proceeds per member on an isolated view
// of the shared scan (core.ComputeView).
package engine

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
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

// itemKey is the full identity of a request: subspace+k, options
// signature and the exact weight bits.
func itemKey(it BatchItem) string {
	buf := []byte(keyOf(it.Q, it.K))
	buf = binary.AppendVarint(buf, int64(it.Opts.Phi))
	var flags int64
	if it.Opts.CompositionOnly {
		flags |= 1
	}
	if it.Opts.NoCache {
		flags |= 2
	}
	buf = binary.AppendVarint(buf, flags)
	for _, w := range it.Q.Weights {
		buf = binary.AppendUvarint(buf, math.Float64bits(w))
	}
	return string(buf)
}

// cell is one distinct request of a batch: the first occurrence
// computes, dups alias its answer.
type cell struct {
	item  BatchItem
	first int   // index of the computing occurrence
	dups  []int // indexes sharing the answer
}

// AnalyzeBatch answers every item and returns results aligned with the
// input slice. Distinct queries run concurrently, up to the engine's
// worker-pool width; duplicates of an item share its answer, and items
// sharing a subspace and k share one fused scan. ctx cancels the whole
// batch: items not yet finished report the context's error.
func (e *Engine) AnalyzeBatch(ctx context.Context, items []BatchItem) []BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]BatchResult, len(items))

	// De-duplicate: the first occurrence of each identity computes, the
	// rest alias it.
	order := make([]*cell, 0, len(items))
	byKey := make(map[string]*cell, len(items))
	mQueries.Add("analyze", int64(len(items)))
	for i, it := range items {
		k := itemKey(it)
		if c, ok := byKey[k]; ok {
			c.dups = append(c.dups, i)
			continue
		}
		c := &cell{item: it, first: i}
		byKey[k] = c
		order = append(order, c)
	}

	// Fusion grouping: validated cells sharing (Dims, k) form one unit
	// answered by a single shared scan. Invalid cells fail in place and
	// never join a group.
	units := make([][]*cell, 0, len(order))
	groups := make(map[bucketKey]int, len(order))
	for _, c := range order {
		if err := e.validate(c.item.Q, c.item.K, c.item.Opts.Phi); err != nil {
			results[c.first] = BatchResult{Err: err}
			continue
		}
		gk := keyOf(c.item.Q, c.item.K)
		if u, ok := groups[gk]; ok {
			units[u] = append(units[u], c)
			continue
		}
		groups[gk] = len(units)
		units = append(units, []*cell{c})
	}

	workers := e.workers()
	if workers > len(units) {
		workers = len(units)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					return
				}
				e.analyzeUnit(ctx, units[i], results)
			}
		}()
	}
	wg.Wait()

	for _, c := range order {
		r := results[c.first]
		for _, i := range c.dups {
			if r.Err != nil {
				results[i] = r
				continue
			}
			// Share the answer but zero the metrics, matching cache hits:
			// summing per-item I/O over a batch must not double-count the
			// one computation.
			dedup := &core.Output{
				Query:   r.Analysis.Query,
				K:       r.Analysis.K,
				Result:  r.Analysis.Result,
				Regions: r.Analysis.Regions,
			}
			results[i] = BatchResult{Analysis: &Analysis{Output: dedup, Source: SourceDeduped}}
		}
	}
	return results
}

// analyzeUnit answers one fusion group. Cells served by the cache drop
// out first; a single survivor runs the plain pipeline, several share a
// fused scan.
func (e *Engine) analyzeUnit(ctx context.Context, cells []*cell, results []BatchResult) {
	pending := make([]*cell, 0, len(cells))
	for _, c := range cells {
		useCache := e.cache != nil && !c.item.Opts.NoCache
		if useCache {
			if out, ok := e.cache.lookupAnalyze(c.item.Q, c.item.K, c.item.Opts.Options); ok {
				results[c.first] = BatchResult{Analysis: &Analysis{Output: out, Source: SourceCache}}
				continue
			}
		} else if e.cache != nil {
			e.cache.bypass()
		}
		pending = append(pending, c)
	}
	if len(pending) == 0 {
		return
	}

	fail := func(err error) {
		for _, c := range pending {
			if results[c.first].Analysis == nil && results[c.first].Err == nil {
				results[c.first] = BatchResult{Err: err}
			}
		}
	}
	// One worker slot covers the whole group: the shared scan is one
	// query execution's worth of scan state.
	release, err := e.acquire(ctx)
	if err != nil {
		fail(err)
		return
	}
	defer release()
	e.mu.RLock()
	defer e.mu.RUnlock()

	if len(pending) == 1 {
		c := pending[0]
		out, err := e.compute(ctx, c.item.Q, c.item.K, c.item.Opts)
		if err != nil {
			results[c.first] = BatchResult{Err: err}
			return
		}
		results[c.first] = BatchResult{Analysis: e.admitLocked(c.item, out)}
		return
	}

	queries := make([]vec.Query, len(pending))
	for i, c := range pending {
		queries[i] = c.item.Q
	}
	qix := e.queryIndex()
	defer qix.Stats().Flush()
	multi := topk.NewMulti(qix, queries, pending[0].item.K, topk.BestList)
	defer multi.Release() // every member Output below is detached by core
	seq0, rnd0, _ := qix.Stats().Snapshot()
	if err := multi.RunContext(ctx); err != nil {
		fail(fmt.Errorf("engine: query canceled: %w", err))
		return
	}
	seqScan, rndScan, _ := qix.Stats().Snapshot()
	seqScan -= seq0
	rndScan -= rnd0
	for i, c := range pending {
		copts := c.item.Opts.Options
		if copts.Parallelism == 0 {
			copts.Parallelism = e.cfg.Parallelism
		}
		member := multi.Member(i)
		out, err := core.ComputeView(ctx, member, copts)
		member.Release()
		if err != nil {
			results[c.first] = BatchResult{Err: err}
			continue
		}
		// Each member reports the shared scan's I/O on top of its own
		// region-phase charges, mirroring the solo path where every
		// analysis pays its own scan. The engine-wide meter counted the
		// scan once, as it should.
		out.Metrics.SeqPages += seqScan
		out.Metrics.RandReads += rndScan
		observeCompute(out.Metrics.Phase1, out.Metrics.Phase2, out.Metrics.Phase3, multi.SortedAccesses())
		results[c.first] = BatchResult{Analysis: e.admitLocked(c.item, out)}
	}
}

// admitLocked finishes a computed analysis under the read lock the
// caller already holds: cache admission when eligible, source tagging.
func (e *Engine) admitLocked(it BatchItem, out *core.Output) *Analysis {
	if e.cache != nil && !it.Opts.NoCache {
		e.cache.admit(it.Q, it.K, it.Opts.Options, out)
		return &Analysis{Output: out, Source: SourceComputed}
	}
	return &Analysis{Output: out, Source: SourceBypass}
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
	results := make([]TopKResult, len(items))
	var order [][]int
	groups := make(map[bucketKey]int, len(items))
	mQueries.Add("topk", int64(len(items)))
	for i, it := range items {
		if err := e.validate(it.Q, it.K, 0); err != nil {
			results[i].Err = err
			continue
		}
		if e.cache != nil {
			if res, ok := e.cache.lookupTopK(it.Q, it.K); ok {
				results[i] = TopKResult{Result: res, Source: SourceCacheRegion}
				continue
			}
		}
		gk := keyOf(it.Q, it.K)
		if u, ok := groups[gk]; ok {
			order[u] = append(order[u], i)
			continue
		}
		groups[gk] = len(order)
		order = append(order, []int{i})
	}

	workers := e.workers()
	if workers > len(order) {
		workers = len(order)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				e.topkGroup(ctx, order[i], items, results)
			}
		}()
	}
	wg.Wait()
	return results
}

// topkGroup runs one subspace+k group under a single worker slot.
func (e *Engine) topkGroup(ctx context.Context, idx []int, items []TopKItem, results []TopKResult) {
	fail := func(err error) {
		for _, i := range idx {
			results[i].Err = err
		}
	}
	release, err := e.acquire(ctx)
	if err != nil {
		fail(err)
		return
	}
	defer release()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(idx) == 1 {
		i := idx[0]
		ix := e.queryIndex()
		defer ix.Stats().Flush()
		ta := topk.New(ix, items[i].Q, items[i].K, topk.BestList)
		defer ta.Release()
		if err := ta.RunContext(ctx); err != nil {
			results[i].Err = fmt.Errorf("engine: query canceled: %w", err)
			return
		}
		mSortedAccesses.Observe(float64(ta.SortedAccesses()))
		results[i] = TopKResult{Result: ta.Result(), Source: SourceComputed}
		return
	}
	queries := make([]vec.Query, len(idx))
	for j, i := range idx {
		queries[j] = items[i].Q
	}
	ix := e.queryIndex()
	defer ix.Stats().Flush()
	multi := topk.NewMulti(ix, queries, items[idx[0]].K, topk.BestList)
	defer multi.Release()
	if err := multi.RunContext(ctx); err != nil {
		fail(fmt.Errorf("engine: query canceled: %w", err))
		return
	}
	for j, i := range idx {
		mSortedAccesses.Observe(float64(multi.SortedAccesses()))
		results[i] = TopKResult{Result: multi.Result(j), Source: SourceComputed}
	}
}
