// Package repro is a Go implementation of "Computing Immutable Regions
// for Subspace Top-k Queries" (Mouratidis & Pang, PVLDB 6(2), 2013).
//
// Given a dataset of sparse vectors in [0,1]^m and a linear subspace
// top-k query, the library answers the query with the threshold
// algorithm over per-dimension inverted lists and then computes, for
// every query dimension, the immutable region: the widest range of
// weight deviations within which the ranked result provably does not
// change — plus, for φ > 0, the next φ perturbations on each side and
// the exact result in every region between them.
//
// Quick start:
//
//	eng := repro.NewEngine(tuples, m)
//	a, err := eng.Analyze(ctx, q, 10, repro.Options{Method: repro.CPT})
//	for _, reg := range a.Regions { fmt.Println(repro.RenderSlider(q, reg, 40)) }
//
// The heavy lifting lives in internal packages: internal/engine is the
// unified execution layer every entry point shares (validation, the
// immutable-region answer cache, batching, cancellation),
// internal/core holds the Scan/Prune/Thres/CPT algorithms,
// internal/topk the resumable TA, internal/geom the envelope geometry,
// internal/storage the disk layer.
package repro

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lists"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/topk"
	"repro/internal/vec"
)

// Entry is one non-zero coordinate of a tuple.
type Entry = vec.Entry

// Tuple is a sparse vector in [0,1]^m.
type Tuple = vec.Sparse

// Query is a subspace top-k query: weights over a subset of dimensions.
type Query = vec.Query

// NewQuery validates and builds a query from parallel dims/weights.
func NewQuery(dims []int, weights []float64) (Query, error) { return vec.NewQuery(dims, weights) }

// NewTuple validates and builds a tuple from entries.
func NewTuple(entries []Entry) (Tuple, error) { return vec.NewSparse(entries) }

// FromDense converts dense coordinates to a Tuple.
func FromDense(coords []float64) Tuple { return vec.FromDense(coords) }

// ErrInvalid tags query-validation failures (bad k, out-of-range,
// duplicate or >64 dimensions, bad weights); test with errors.Is.
var ErrInvalid = engine.ErrInvalid

// ErrImmutable tags Apply calls on an engine without a write path
// (EngineConfig.ReadOnly); test with errors.Is.
var ErrImmutable = engine.ErrImmutable

// Method selects the region-computation algorithm.
type Method = core.Method

// Algorithm variants (§4–§5 of the paper): Scan is the baseline; CPT —
// candidate pruning plus thresholding — is the paper's contribution and
// the recommended default.
const (
	Scan  = core.MethodScan
	Prune = core.MethodPrune
	Thres = core.MethodThres
	CPT   = core.MethodCPT
)

// Options configures Analyze; see core.Options for field semantics.
type Options = core.Options

// Regions holds one dimension's immutable regions; see core.Regions.
type Regions = core.Regions

// Perturbation describes a result change at a region bound.
type Perturbation = core.Perturbation

// Metrics meters a region computation.
type Metrics = core.Metrics

// Scored is a tuple with its score and query-subspace projection.
type Scored = topk.Scored

// Analysis is the complete answer: the ranked top-k result and the
// immutable regions of every query dimension, plus how it was produced
// (Source reports whether the answer-cache served it). On cache hits
// the embedded result and regions are shared with the cache and must be
// treated as read-only.
type Analysis = engine.Analysis

// EngineConfig tunes an Engine beyond the zero-value defaults.
type EngineConfig struct {
	// MaxConcurrent caps concurrently executing queries (0 = default
	// 4×GOMAXPROCS, negative = unlimited).
	MaxConcurrent int
	// CacheEntries / CacheBytes bound the immutable-region answer cache
	// (0 = defaults; CacheEntries < 0 disables the cache).
	CacheEntries int
	CacheBytes   int64
	// VerifyChecksums makes OpenEngineWithConfig validate the dataset
	// files' integrity trailers before serving them.
	VerifyChecksums bool
	// ReadOnly disables the write path (Apply); the dataset is then
	// served without the in-memory write overlay.
	ReadOnly bool
}

func (c EngineConfig) internal() engine.Config {
	return engine.Config{
		MaxConcurrent:   c.MaxConcurrent,
		CacheEntries:    c.CacheEntries,
		CacheBytes:      c.CacheBytes,
		VerifyChecksums: c.VerifyChecksums,
		ReadOnly:        c.ReadOnly,
	}
}

// Engine answers top-k queries and computes immutable regions over one
// dataset. It is a thin facade over the unified execution layer
// (internal/engine): validation, per-query metering, the answer cache
// and cancellation all live there, shared with the HTTP server.
type Engine struct {
	eng *engine.Engine
}

// NewEngine indexes tuples (in [0,1]^m) in memory with default settings
// (answer cache enabled).
func NewEngine(tuples []Tuple, m int) *Engine {
	return NewEngineWithConfig(tuples, m, EngineConfig{})
}

// NewEngineWithConfig indexes tuples in memory with explicit settings.
// The engine reads the tuples in place and never writes them — Apply
// writes to its overlay — so the caller must not modify them while the
// engine is in use.
func NewEngineWithConfig(tuples []Tuple, m int, cfg EngineConfig) *Engine {
	return &Engine{eng: engine.New(lists.NewMemIndex(tuples, m), cfg.internal())}
}

// OpenEngine opens a dataset persisted with SaveDataset, with default
// settings.
func OpenEngine(tuplePath, listPath string) (*Engine, error) {
	return OpenEngineWithConfig(tuplePath, listPath, EngineConfig{})
}

// OpenEngineWithConfig opens a persisted dataset with explicit settings
// (including optional checksum verification of both files).
func OpenEngineWithConfig(tuplePath, listPath string, cfg EngineConfig) (*Engine, error) {
	eng, err := engine.Open(tuplePath, listPath, cfg.internal())
	if err != nil {
		return nil, err
	}
	return &Engine{eng: eng}, nil
}

// ErrManifestMoved is returned by OpenEngineDir (and any lock-free
// read-only open) when every one of its engine.SnapshotOpenAttempts
// attempts raced a concurrent writer's checkpoint publication — the
// manifest moved, or the generation files were swept, mid-open each
// time. The directory is healthy; retry later or back off. Test with
// errors.Is(err, repro.ErrManifestMoved).
var ErrManifestMoved = engine.ErrManifestMoved

// OpenEngineDir opens a dataset directory read-only, following its
// checkpoint MANIFEST to the live file generation and replaying any
// write-ahead log so acknowledged update batches are served — the open
// every tool pointed at a durable irserver directory should use. The
// engine is always read-only: a facade Apply here would mutate state
// the directory's log never records (silently non-durable writes), so
// writes must go through the owning server (or engine.OpenDir with
// Config.WAL).
//
// Because no lock is taken, a live writer can publish a checkpoint
// mid-open; the open detects the moved manifest and retries against
// the new generation, up to engine.SnapshotOpenAttempts (4) times,
// after which it fails with the typed ErrManifestMoved rather than a
// misleading raw I/O error.
func OpenEngineDir(dir string, cfg EngineConfig) (*Engine, error) {
	icfg := cfg.internal()
	icfg.ReadOnly = true
	eng, err := engine.OpenDir(dir, 0, icfg)
	if err != nil {
		return nil, err
	}
	return &Engine{eng: eng}, nil
}

// SaveDataset persists tuples and their inverted lists in the on-disk
// format OpenEngine reads. It fails, writing nothing, when a tuple is not
// a valid vector (Validate) or has a dimension at or past m.
func SaveDataset(tuplePath, listPath string, tuples []Tuple, m int) error {
	return lists.SaveDataset(tuplePath, listPath, tuples, m)
}

// VerifyDatasetFile re-reads a persisted dataset file and validates its
// integrity trailer (CRC32 over the full payload).
func VerifyDatasetFile(path string) error { return storage.VerifyChecksum(path) }

// Close releases any underlying files (no-op for in-memory engines).
func (e *Engine) Close() error { return e.eng.Close() }

// Stats exposes the engine's I/O meter.
func (e *Engine) Stats() *storage.IOStats { return e.eng.Stats() }

// CacheStats snapshots the answer cache's counters.
func (e *Engine) CacheStats() engine.CacheStats { return e.eng.CacheStats() }

// N returns the dataset cardinality.
func (e *Engine) N() int { return e.eng.N() }

// Dim returns the dataset dimensionality m.
func (e *Engine) Dim() int { return e.eng.Dim() }

// Tuple fetches one tuple by id (counted as a random I/O).
func (e *Engine) Tuple(id int) Tuple { return e.eng.Tuple(id) }

// Every query method takes a context and returns an error: ErrInvalid
// for an invalid query (k < 1, a dimension outside the dataset, …), the
// context's error once ctx is cancelled (down to the TA round loop), and
// the read error when the dataset's files fail a read.

// TopK answers the query with the threshold algorithm and returns the
// ranked result. If a prior analysis' immutable regions contain the
// weight vector, the result is served from the answer cache without
// touching the index.
func (e *Engine) TopK(ctx context.Context, q Query, k int) ([]Scored, error) {
	res, _, err := e.eng.TopKMetered(ctx, q, k)
	return res, err
}

// TraceStep is one row of a TA execution trace (the paper's Fig. 2).
type TraceStep = topk.TraceStep

// TopKTrace answers the query while recording every sorted access,
// returning the ranked result and the execution trace. Round-robin
// probing is used so traces match the paper's presentation.
func (e *Engine) TopKTrace(ctx context.Context, q Query, k int) ([]Scored, []TraceStep, error) {
	return e.eng.TopKTrace(ctx, q, k)
}

// Analyze answers the query and computes the immutable regions of every
// query dimension with the selected method (CPT by default semantics of
// the zero Options value is Scan; pass Method: repro.CPT for the paper's
// algorithm). Identical repeat queries are served from the answer cache
// with zero index I/O; check Analysis.Source for the disposition.
func (e *Engine) Analyze(ctx context.Context, q Query, k int, opts Options) (*Analysis, error) {
	return e.eng.Analyze(ctx, q, k, engine.Options{Options: opts})
}

// Op is one mutation of an Apply batch; OpKind selects insert, update
// or delete.
type Op = engine.Op

// OpKind selects a mutation.
type OpKind = engine.OpKind

// Mutation kinds for Op.Kind.
const (
	OpInsert = engine.OpInsert
	OpUpdate = engine.OpUpdate
	OpDelete = engine.OpDelete
)

// OpResult is the per-op outcome of an Apply batch.
type OpResult = engine.OpResult

// ApplyResult summarizes one Apply batch, including how many cached
// analyses survived the region-certified invalidation check.
type ApplyResult = engine.ApplyResult

// MutationStats snapshots the engine's write-path counters.
type MutationStats = engine.MutationStats

// Mutable reports whether this engine accepts Apply: every engine does
// unless EngineConfig.ReadOnly is set (OpenEngineDir's never do). Writes
// go to an in-memory overlay, never to the tuples or files the engine
// was built from.
func (e *Engine) Mutable() bool { return e.eng.Mutable() }

// Apply executes a batch of tuple mutations. Cached analyses are kept
// serving whenever the immutable-region certificate proves the change
// cannot alter their result anywhere in their region polytope; only the
// rest are evicted. Ops apply independently in order, with per-op
// errors in ApplyResult.Results.
func (e *Engine) Apply(ops []Op) (ApplyResult, error) {
	return e.eng.ApplyContext(context.TODO(), ops)
}

// MutationStats snapshots the write-path counters.
func (e *Engine) MutationStats() MutationStats { return e.eng.MutationStats() }

// Session is an iterative query-refinement session (§1's motivating
// workflow): weight adjustments are served without recomputation
// whenever the immutable regions prove the result unchanged (safe skip)
// or the φ-schedule already names the new result (local hit). See
// internal/session for the mechanism and Stats for the accounting.
type Session = session.Session

// SessionStats counts how a session's adjustments were served.
type SessionStats = session.Stats

// NewSession starts a refinement session on this engine. opts.Phi > 0
// enables local hits (precomputed perturbation schedules). Session
// recomputes go through the unified engine, so adjustments that revisit
// previously analyzed weights are additionally served by the answer
// cache.
func (e *Engine) NewSession(q Query, k int, opts Options) (*Session, error) {
	return session.New(func(q vec.Query, k int, opts core.Options) (*core.Output, error) {
		a, err := e.eng.Analyze(context.Background(), q, k, engine.Options{Options: opts})
		if err != nil {
			return nil, err
		}
		return a.Output, nil
	}, q, k, opts)
}

// SafeConcurrent reports whether shifting all query weights
// simultaneously by devs (parallel to the query dimensions of the
// analysis) provably preserves the ranked result — the cross-polytope
// test of the paper's footnote 1.
func SafeConcurrent(regions []Regions, devs []float64) (bool, error) {
	return core.SafeConcurrent(regions, devs)
}

// RenderSlider draws the paper's Fig. 1 slide-bar for one dimension: the
// weight axis [0,1] with the current weight and the immutable region's
// bounds marked.
//
//	dim 3  0 ───────────╢████════█████╟─────────── 1   q=0.50  IR=(-0.14,+0.21)
//
// '█' spans the immutable region, '═' is the current weight position.
func RenderSlider(q Query, reg Regions, width int) string {
	if width < 10 {
		width = 10
	}
	qj := q.Weights[reg.QPos]
	lo, hi := qj+reg.Lo, qj+reg.Hi
	pos := func(v float64) int {
		p := int(v * float64(width-1))
		if p < 0 {
			p = 0
		}
		if p >= width {
			p = width - 1
		}
		return p
	}
	bar := make([]rune, width)
	for i := range bar {
		bar[i] = '─'
	}
	for i := pos(lo); i <= pos(hi); i++ {
		bar[i] = '█'
	}
	bar[pos(qj)] = '═'
	var b strings.Builder
	fmt.Fprintf(&b, "dim %-5d 0 %s 1   q=%.3f  IR=(%+.4f, %+.4f)", reg.Dim, string(bar), qj, reg.Lo, reg.Hi)
	return b.String()
}
