// Package engine is the unified query-execution layer: every entry
// point of the system — the public repro facade, the HTTP server, the
// refinement sessions, the CLI tools and the experiment harness — goes
// through an Engine instead of assembling the TA + region pipeline by
// hand. The read path is one pipeline, written once, in three pieces:
//
//   - the probe (probeAnalyze, probeTopK): query validation (k,
//     dimension range, φ) with errors tagged ErrInvalid so transports
//     can map them to client faults, then the immutable-region answer
//     cache (cache.go): completed analyses are certificates of result
//     validity, so repeat and in-region queries are answered without
//     touching the index;
//   - the execution (analyzeLocked, topkLocked) of what the probe left
//     unanswered: an analysis runs its own threshold scan, then region
//     computation over that scan (core.Compute) on its own goroutine,
//     then cache admission; ranked queries over one subspace and k may
//     share one fused scan (topk.Multi);
//   - the funnel (run) an execution runs in: context-aware admission (a
//     bounded worker pool; queued requests abandon cleanly), the read
//     lock, and a per-query child I/O meter, so each execution is
//     metered in isolation while the index-wide counters keep
//     aggregating; cancellation is threaded down to the TA round loop.
//
// A single request runs inline; a batch (batch.go) is de-duplication,
// the same probe and a fan-out over the worker pool around the same
// execution, so a batch item cannot behave differently from the same
// query sent alone: an analysis item reports exactly what the query
// reports on its own.
//
// The Engine is safe for any number of concurrent callers: per-query
// state is private, the cache is internally synchronized, and
// mutations are serialized against queries by the engine-wide RWMutex.
//
// # Lock ordering
//
// The engine-wide mu is the outermost lock. Query executions hold its
// read side across compute AND cache admission; Apply holds the write
// side across WAL append, replication shipping, index mutation and
// cache invalidation, so no pre-update analysis can be admitted or
// served once Apply has returned. Everything acquired below mu — the
// cache's own mutex, the WAL writer's mutex, a replication sink's
// internal lock — is leaf-level: no code path takes mu while holding
// one of them. The checkpoint mutex (durable.ckptMu) is taken before
// mu (checkpoints span lock regions); the quorum commit gate runs with
// mu released so waiting on follower acks never stalls queries. Cache
// hits take no lock at all beyond the cache's own.
//
// # Cache-invalidation certificate
//
// A cached analysis is a validity certificate: every weight vector in
// its cross-polytope provably has the cached ranked result. Apply
// keeps an entry serving only if, for every changed tuple, the maximum
// of the linear score gap against every cached result line over the
// polytope's closure is negative, decided exactly (closed form over the
// cached projections, O(k·qlen), zero index I/O — see mutate.go). The same
// certificate is what makes replication standbys trustworthy: a
// standby replays Apply batches through the identical path, so its
// cache is invalidated exactly as the primary's was.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lists"
	"repro/internal/storage"
	"repro/internal/topk"
	"repro/internal/vec"
	"repro/internal/wal"
)

// ErrInvalid tags query-validation failures (bad k, out-of-range
// dimension, negative φ). Transports test errors.Is(err, ErrInvalid) to
// report a client fault instead of a server one.
var ErrInvalid = errors.New("invalid query")

// Default cache bounds applied when Config leaves them zero.
const (
	DefaultCacheEntries = 1024
	DefaultCacheBytes   = 64 << 20
)

// Config tunes an Engine.
type Config struct {
	// MaxConcurrent caps the number of queries executing at once (the
	// worker pool AnalyzeBatch fans over). Each in-flight query holds
	// O(n) working state, so the cap is the engine's memory
	// backpressure. It is also the engine's one concurrency knob: a
	// query's region computation runs on one goroutine, over the shared
	// scan. 0 picks the default of 4×GOMAXPROCS; a negative value
	// disables the cap entirely. Cache hits bypass the pool.
	MaxConcurrent int
	// CacheEntries bounds the answer cache's entry count. 0 picks
	// DefaultCacheEntries; a negative value disables the cache.
	CacheEntries int
	// CacheBytes bounds the cache's estimated footprint in bytes.
	// 0 picks DefaultCacheBytes.
	CacheBytes int64
	// VerifyChecksums makes Open validate the dataset files' integrity
	// trailers before serving them. Ignored by New.
	VerifyChecksums bool
	// ReadOnly is the one switch for writability. Unset, New wraps the
	// index in a write overlay (lists.Overlay) and Apply works; set, the
	// index is served as it is and Apply fails with ErrImmutable.
	ReadOnly bool
	// WAL enables the durability subsystem when opening a dataset
	// directory via OpenDir: Apply batches are appended to wal.log
	// before they mutate the overlay, and recovery replays the log on
	// open. Ignored by New and the path-based Open.
	WAL bool
	// WALSync selects when appended batches are fsynced (the zero value
	// is wal.SyncBatch: fsync per Apply).
	WALSync wal.SyncPolicy
	// CheckpointBytes triggers checkpoint compaction when the log or the
	// overlay delta crosses it. 0 picks DefaultCheckpointBytes; a
	// negative value disables automatic compaction (Engine.Checkpoint
	// still works).
	CheckpointBytes int64
}

// Engine executes subspace top-k queries and immutable-region analyses
// over one index.
type Engine struct {
	// ix and mut are swapped by a checkpoint under the write lock, so
	// every read of them holds mu. What a swap cannot change is kept
	// apart, set once by New and read without a lock: the
	// dimensionality, the engine-wide I/O meter the swap carries over,
	// and whether the engine is writable.
	ix      lists.Index
	mut     *lists.Overlay // the write path; nil when ReadOnly
	dim     int
	stats   *storage.IOStats
	mutable bool
	cfg     Config
	sem     chan struct{} // nil when unlimited
	cache   *cache        // nil when disabled
	closer  func() error
	dur     *durable // non-nil when the engine has a write-ahead log

	// Replication hooks (replicate.go). Both are set once, before the
	// engine serves traffic, and never change afterwards: replSink
	// observes commits/checkpoints under the write lock, commitGate runs
	// after Apply releases it.
	replSink   ReplicationSink
	commitGate func(seq uint64) error

	// mu serializes mutations against queries: every execution that
	// touches the index holds the read side for its whole run, Apply
	// holds the write side across the index mutation AND the cache
	// invalidation, so no stale certificate can be admitted or served
	// once Apply has returned. Cache hits never take mu — they read only
	// internally synchronized cache state, and an answer served while a
	// batch is still applying linearizes before it.
	mu sync.RWMutex

	// Fencing epoch state (fence.go): the node's own epoch, the highest
	// foreign epoch observed, and the persisted promotion timeline.
	epoch    atomic.Uint64
	fencedBy atomic.Uint64
	epochsMu sync.Mutex
	epochs   []wal.EpochStart

	// Mutation counters (see MutationStats).
	mutOps                              [numOpKinds]atomic.Int64 // applied ops per kind
	mutBatches                          atomic.Int64
	invChecked, invEvicted, invSurvived atomic.Int64
}

// New builds an Engine over an existing index. Unless the config says
// ReadOnly, Apply is enabled: the engine serves and mutates a write
// overlay of its own over ix, so the index, and the tuples it was built
// from, are never written.
func New(ix lists.Index, cfg Config) *Engine {
	e := &Engine{ix: ix, dim: ix.Dim(), stats: ix.Stats(), mutable: !cfg.ReadOnly, cfg: cfg}
	if e.mutable {
		e.mut = lists.NewOverlay(ix)
		e.ix = e.mut
	}
	limit := cfg.MaxConcurrent
	if limit == 0 {
		limit = 4 * runtime.GOMAXPROCS(0)
	}
	if limit > 0 {
		e.sem = make(chan struct{}, limit)
	}
	if cfg.CacheEntries >= 0 {
		entries := cfg.CacheEntries
		if entries == 0 {
			entries = DefaultCacheEntries
		}
		bytes := cfg.CacheBytes
		if bytes == 0 {
			bytes = DefaultCacheBytes
		}
		e.cache = newCache(entries, bytes)
	}
	return e
}

// Open opens a persisted dataset, optionally verifying the files'
// checksum trailers first (Config.VerifyChecksums), and builds an Engine
// over it with New, so Apply works over persisted datasets too unless
// the config says ReadOnly; the files themselves are never modified.
func Open(tuplePath, listPath string, cfg Config) (*Engine, error) {
	ix, err := openDisk(tuplePath, listPath, cfg)
	if err != nil {
		return nil, err
	}
	e := New(ix, cfg)
	e.closer = ix.Close
	return e, nil
}

// openDisk is the first step of every open — path-based, snapshot and
// writer-role alike: validate both files' checksum trailers when the
// config asks, then open them as one DiskIndex.
func openDisk(tuplePath, listPath string, cfg Config) (*lists.DiskIndex, error) {
	if cfg.VerifyChecksums {
		for _, p := range []string{tuplePath, listPath} {
			if err := storage.VerifyChecksum(p); err != nil {
				return nil, fmt.Errorf("engine: verify %s: %w", p, err)
			}
		}
	}
	return lists.OpenDiskIndex(tuplePath, listPath)
}

// Close flushes and closes the write-ahead log (durable engines), then
// releases the underlying files (no-op for in-memory indexes). It takes
// the engine's write lock first, so it waits for in-flight queries and
// Apply batches to drain instead of closing files under them; cancel
// their contexts (e.g. by force-closing the HTTP server) to bound the
// wait.
func (e *Engine) Close() error {
	if e.dur != nil {
		// A checkpoint's rewrite reads the files below with mu released;
		// wait it out (ckptMu before mu, the documented order).
		e.dur.ckptMu.Lock()
		defer e.dur.ckptMu.Unlock()
		e.dur.closed = true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var firstErr error
	if e.dur != nil {
		firstErr = e.dur.log.Close()
	}
	if e.closer != nil {
		if err := e.closer(); firstErr == nil {
			firstErr = err
		}
		e.closer = nil
	}
	if e.dur != nil {
		if err := e.dur.lock.Release(); firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Index exposes the underlying index (read-only): the one served now,
// which a later checkpoint may swap for the next generation's.
func (e *Engine) Index() lists.Index {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ix
}

// Stats exposes the index-wide I/O meter.
func (e *Engine) Stats() *storage.IOStats { return e.stats }

// N returns the dataset cardinality (including tombstoned slots; it
// grows with inserts).
func (e *Engine) N() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ix.NumTuples()
}

// Dim returns the dataset dimensionality m.
func (e *Engine) Dim() int { return e.dim }

// Tuple fetches one tuple by id (counted as a random I/O).
func (e *Engine) Tuple(id int) vec.Sparse {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.ix.Tuple(id)
}

// Options configures one analysis request.
type Options struct {
	core.Options
	// NoCache bypasses the answer cache entirely: no lookup, no
	// admission. The paper-faithful measurement paths (benchmarks, the
	// experiment harness) use it so cached answers never contaminate
	// algorithm metering.
	NoCache bool
}

// Source records how a response was produced.
type Source int

const (
	// SourceComputed ran the full TA + region pipeline.
	SourceComputed Source = iota
	// SourceBypass ran the full pipeline with the cache bypassed.
	SourceBypass
	// SourceCache served a cached analysis (exact weight-vector match).
	SourceCache
	// SourceCacheRegion served a top-k result certified by a cached
	// analysis whose immutable regions contain the requested weights.
	SourceCacheRegion
	// SourceDeduped shared the answer of an identical query in the same
	// batch.
	SourceDeduped
	// SourceMerged was merged from every shard's answer by a
	// scatter-gather coordinator (internal/shard). No cache was
	// consulted, so transports report no cache disposition for it.
	SourceMerged
)

func (s Source) String() string {
	switch s {
	case SourceComputed:
		return "miss"
	case SourceBypass:
		return "bypass"
	case SourceCache:
		return "hit"
	case SourceCacheRegion:
		return "hit-region"
	case SourceDeduped:
		return "dedup"
	case SourceMerged:
		return "merged"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// Analysis is one answered analysis. The embedded Output is shared with
// the cache on hits and must be treated as read-only; on cache hits its
// Metrics are zero (no work was done). Timings is the engine envelope
// around the computation, for a batch item as for a single query (only
// an item answered as another's duplicate went through no envelope of
// its own).
type Analysis struct {
	*core.Output
	Source  Source
	Timings Timings
}

// maxQueryDims is the hard qlen ceiling: the candidate-partition masks
// of internal/topk are single uint64 bitsets, so a 65-dimension query
// would corrupt them (and panics in topk.New). The engine rejects such
// queries as a client fault before they reach the executor.
const maxQueryDims = 64

// validate checks the request against the index; failures wrap
// ErrInvalid. Beyond the basics (k, φ, dimension range) it enforces the
// structural invariants the executor relies on but vec.NewQuery cannot
// guarantee for hand-built queries: parallel Dims/Weights, strictly
// ascending dimensions (duplicates would corrupt the partition-mask
// accounting), weights inside [0,1], and the 64-dimension bitset limit.
func (e *Engine) validate(q vec.Query, k, phi int) error {
	if k < 1 {
		return fmt.Errorf("engine: k=%d: %w", k, ErrInvalid)
	}
	if q.Len() == 0 {
		return fmt.Errorf("engine: empty query: %w", ErrInvalid)
	}
	if q.Len() > maxQueryDims {
		return fmt.Errorf("engine: %d query dimensions exceed the %d-dimension limit: %w", q.Len(), maxQueryDims, ErrInvalid)
	}
	if len(q.Weights) != len(q.Dims) {
		return fmt.Errorf("engine: %d dims but %d weights: %w", len(q.Dims), len(q.Weights), ErrInvalid)
	}
	if phi < 0 {
		return fmt.Errorf("engine: negative phi %d: %w", phi, ErrInvalid)
	}
	prev := -1
	for i, d := range q.Dims {
		if d < 0 || d >= e.dim {
			return fmt.Errorf("engine: dimension %d out of range [0,%d): %w", d, e.dim, ErrInvalid)
		}
		if d == prev {
			return fmt.Errorf("engine: duplicate query dimension %d: %w", d, ErrInvalid)
		}
		if d < prev {
			return fmt.Errorf("engine: query dimensions not sorted (%d after %d): %w", d, prev, ErrInvalid)
		}
		prev = d
		if w := q.Weights[i]; w < 0 || w > 1 || math.IsNaN(w) {
			return fmt.Errorf("engine: weight %v for dimension %d outside [0,1]: %w", w, d, ErrInvalid)
		}
	}
	return nil
}

// acquire blocks until a worker slot is free (no-op when unlimited) or
// ctx is done — a client that gave up while queued must not trigger a
// full query execution.
func (e *Engine) acquire(ctx context.Context) (release func(), err error) {
	if e.sem == nil {
		return func() {}, nil
	}
	select {
	case e.sem <- struct{}{}:
		return func() { <-e.sem }, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("engine: canceled while queued: %w", ctx.Err())
	}
}

// run is the funnel: whatever reads the index on behalf of a request
// does it in here. fn runs holding one worker slot and the read side of
// mu, over a view of the index charging a fresh meter, which passes its
// totals on to the index-wide counters once, when fn returns: the
// execution is metered in isolation, at one addition per counter instead
// of one per access. queued is how long the slot and the lock took to
// get. locksafe checks what runs under the lock only in functions named
// …Locked, so fn is a literal that does nothing but call one.
//
// A memory fault on the tuple file's mapping (the file cut short under
// the open engine, or a disk error under a mapped page) fails the
// request with a read error instead of killing the process: the fault
// panics on this goroutine, everything fn holds is released by its own
// defers as the panic unwinds, and storage.CatchFault turns it into err.
// Any other panic goes on.
func (e *Engine) run(ctx context.Context, fn func(ix lists.Index, queued time.Duration) error) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer storage.CatchFault(&err)
	t0 := time.Now()
	release, err := e.acquire(ctx)
	if err != nil {
		return err
	}
	defer release()
	e.mu.RLock()
	defer e.mu.RUnlock()
	queued := time.Since(t0)
	ix := e.ix.WithStats(e.stats.PerQuery())
	defer ix.Stats().Flush()
	return fn(ix, queued)
}

// analysisJob is one analysis request on its way through the pipeline:
// what was asked, the probe's timings, and the answer once there is one.
type analysisJob struct {
	BatchItem
	tm    Timings
	res   BatchResult
	first int // in AnalyzeBatch, the item the job was made for
}

// probeAnalyze is the first half of the analysis pipeline: validate,
// then look for an exact anchor in the cache. It reports whether that
// settled the request, as a failure or as a hit.
func (e *Engine) probeAnalyze(j *analysisJob) bool {
	t0 := time.Now()
	if err := e.validate(j.Q, j.K, j.Opts.Phi); err != nil {
		j.res.Err = err
		return true
	}
	j.tm.Validate = time.Since(t0)
	if e.cache == nil {
		return false
	}
	if j.Opts.NoCache {
		e.cache.bypass()
		return false
	}
	t0 = time.Now()
	out, ok := e.cache.lookupAnalyze(j.Q, j.K, j.Opts.Options)
	j.tm.Cache = time.Since(t0)
	if ok {
		j.res.Analysis = &Analysis{Output: out, Source: SourceCache, Timings: j.tm}
	}
	return ok
}

// executeAnalyze is the second half: one analysis through the funnel.
func (e *Engine) executeAnalyze(ctx context.Context, j *analysisJob) {
	err := e.run(ctx, func(ix lists.Index, queued time.Duration) error {
		return e.analyzeLocked(ctx, ix, queued, j)
	})
	if err != nil {
		j.res = BatchResult{Err: err}
	}
}

// analyzeLocked computes one analysis: the threshold algorithm, then the
// regions over that same scan (core.Compute), then cache admission. Its
// Metrics count the region phases only, as core.Compute brackets them;
// the scan is charged to the engine-wide meter and is in no report.
// Admission happens before the read lock goes: an analysis of the
// pre-update dataset must not land in the cache after Apply's
// invalidation pass has run. The Output is detached from its scan (core
// compacts the result), so the scan is released here — also when a fault
// on the tuple mapping unwinds the query (Engine.run).
func (e *Engine) analyzeLocked(ctx context.Context, ix lists.Index, queued time.Duration, j *analysisJob) error {
	ta := topk.New(ix, j.Q, j.K, topk.BestList)
	defer ta.Release()
	out, err := core.Compute(ctx, ta, j.Opts.Options)
	if err != nil {
		return err
	}
	observeCompute(out.Metrics.Phase1, out.Metrics.Phase2, out.Metrics.Phase3, ta.SortedAccesses())
	a := &Analysis{Output: out, Source: SourceBypass, Timings: j.tm}
	a.Timings.Queue = queued
	if e.cache != nil && !j.Opts.NoCache {
		a.Source = SourceComputed
		t0 := time.Now()
		e.cache.admit(j.Q, j.K, j.Opts.Options, out)
		a.Timings.Admit = time.Since(t0)
	}
	j.res.Analysis = a
	return nil
}

// Analyze answers the query and computes the immutable regions of every
// query dimension. The answer cache is consulted first: a cached
// analysis of the same subspace, k and options whose weight vector
// matches exactly is returned as-is (Source=SourceCache) with zero
// index I/O. Misses run the full pipeline under ctx and admit the
// completed analysis. A nil ctx is treated as context.Background().
func (e *Engine) Analyze(ctx context.Context, q vec.Query, k int, opts Options) (*Analysis, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	mQueries.Inc("analyze")
	j := analysisJob{BatchItem: BatchItem{Q: q, K: k, Opts: opts}}
	if !e.probeAnalyze(&j) {
		e.executeAnalyze(ctx, &j)
	}
	return j.res.Analysis, j.res.Err
}

// TopKInfo meters one TopKMetered execution: how it was answered, the
// engine envelope timings, the TA stopping depth, and this query's own
// I/O counts from its child meter (all zero on region-certified hits —
// no index work was done).
type TopKInfo struct {
	Source         Source
	Timings        Timings
	SortedAccesses int
	SeqPages       int64
	RandReads      int64
}

// topkJob is one ranked-query request on its way through the pipeline.
type topkJob struct {
	TopKItem
	res  []topk.Scored
	info TopKInfo
	err  error
}

// probeTopK is the first half of the ranked-query pipeline: validate,
// then look for a cached analysis whose regions contain the weights. It
// reports whether that settled the request.
func (e *Engine) probeTopK(j *topkJob) bool {
	t0 := time.Now()
	if err := e.validate(j.Q, j.K, 0); err != nil {
		j.err = err
		return true
	}
	j.info.Timings.Validate = time.Since(t0)
	if e.cache == nil {
		return false
	}
	t0 = time.Now()
	res, ok := e.cache.lookupTopK(j.Q, j.K)
	j.info.Timings.Cache = time.Since(t0)
	if ok {
		j.res, j.info.Source = res, SourceCacheRegion
	}
	return ok
}

// executeTopK is the second half: one unit — the ranked queries over one
// subspace and k the probe left unanswered — through the funnel, failing
// as a whole.
func (e *Engine) executeTopK(ctx context.Context, unit []*topkJob) {
	err := e.run(ctx, func(ix lists.Index, queued time.Duration) error {
		return topkLocked(ctx, ix, queued, unit)
	})
	if err != nil {
		for _, j := range unit {
			j.res, j.err = nil, err
		}
	}
}

// topkLocked answers a unit with one scan: the threshold algorithm for
// one request, a fused topk.Multi for several, every member reporting
// the shared scan's depth. The I/O is the scan's, so only a request
// that ran alone has any to call its own.
func topkLocked(ctx context.Context, ix lists.Index, queued time.Duration, unit []*topkJob) error {
	if len(unit) == 1 {
		j := unit[0]
		ta := topk.New(ix, j.Q, j.K, topk.BestList)
		defer ta.Release()
		if err := ta.RunContext(ctx); err != nil {
			return fmt.Errorf("engine: top-k scan: %w", err)
		}
		j.answer(ta.Result(), ta.SortedAccesses(), queued)
		j.info.SeqPages, j.info.RandReads, _ = ix.Stats().Snapshot()
		return nil
	}
	queries := make([]vec.Query, len(unit))
	for i, j := range unit {
		queries[i] = j.Q
	}
	multi := topk.NewMulti(ix, queries, unit[0].K, topk.BestList)
	defer multi.Release()
	if err := multi.RunContext(ctx); err != nil {
		return fmt.Errorf("engine: top-k scan: %w", err)
	}
	for i, j := range unit {
		j.answer(multi.Result(i), multi.SortedAccesses(), queued)
	}
	return nil
}

func (j *topkJob) answer(res []topk.Scored, sortedAccesses int, queued time.Duration) {
	j.res, j.info.SortedAccesses, j.info.Timings.Queue = res, sortedAccesses, queued
	mSortedAccesses.Observe(float64(sortedAccesses))
}

// TopKMetered answers the query with the threshold algorithm and
// reports how: the result carries the full Scored view (ids, exact
// scores and query-subspace projections), info the per-query cost
// accounting the HTTP layer feeds the slow-query log with. Before
// touching the index it consults the answer cache: any cached analysis
// of the same subspace and k whose immutable regions contain the
// requested weight vector certifies the ranked result, which is then
// rebuilt from the cached projections (exact scores, zero index I/O,
// Source=SourceCacheRegion). Top-k results alone carry no regions, so
// misses are not admitted — the cache fills from Analyze traffic.
func (e *Engine) TopKMetered(ctx context.Context, q vec.Query, k int) ([]topk.Scored, TopKInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	mQueries.Inc("topk")
	j := topkJob{TopKItem: TopKItem{Q: q, K: k}}
	if !e.probeTopK(&j) {
		e.executeTopK(ctx, []*topkJob{&j})
	}
	return j.res, j.info, j.err
}

// TopKTrace answers the query while recording every sorted access,
// returning the ranked result and the execution trace (the paper's
// Fig. 2). Round-robin probing is used so traces match the paper's
// presentation. Traces bypass the cache — the trace IS the computation
// — but still hold a worker slot, since a trace run carries the same
// O(n) scan state (plus the trace itself) as any other query. A nil ctx
// is treated as context.Background().
func (e *Engine) TopKTrace(ctx context.Context, q vec.Query, k int) (res []topk.Scored, steps []topk.TraceStep, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err = e.validate(q, k, 0); err != nil {
		return nil, nil, err
	}
	err = e.run(ctx, func(ix lists.Index, _ time.Duration) error {
		res, steps, err = traceLocked(ctx, ix, q, k)
		return err
	})
	return res, steps, err
}

func traceLocked(ctx context.Context, ix lists.Index, q vec.Query, k int) ([]topk.Scored, []topk.TraceStep, error) {
	ta := topk.New(ix, q, k, topk.RoundRobin)
	defer ta.Release()
	var steps []topk.TraceStep
	ta.SetTrace(func(ts topk.TraceStep) { steps = append(steps, ts) })
	if err := ta.RunContext(ctx); err != nil {
		return nil, nil, fmt.Errorf("engine: top-k scan: %w", err)
	}
	return ta.Result(), steps, nil
}

// CacheStats snapshots the answer cache's counters (zero value when the
// cache is disabled).
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.stats()
}

// CacheEnabled reports whether the answer cache is active.
func (e *Engine) CacheEnabled() bool { return e.cache != nil }
