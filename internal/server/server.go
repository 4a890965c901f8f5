// Package server exposes the query engine over HTTP with a small JSON
// API, turning the library into the system-model deployment of §3: a
// server holding the inverted lists and tuple file, answering subspace
// top-k queries and immutable-region analyses for remote clients. The
// server is a thin transport: all execution — validation, admission,
// caching, metering, cancellation — lives behind the Querier interface,
// which the handlers call with the request's context so a disconnected
// client aborts its query mid-run, not just while queued. Two Queriers
// exist: *engine.Engine (a single node) and internal/shard's adapter
// over a scatter-gather coordinator, so a sharded front speaks this
// dialect — routes, validation, status mapping, middleware, slow log —
// because it is this code.
//
// Endpoints:
//
//	POST /topk          {dims, weights, k}           → ranked result
//	                    (X-Cache: hit-region when a cached analysis'
//	                    immutable regions certify the answer)
//	POST /analyze       {dims, weights, k, phi, method, composition_only,
//	                    no_cache} → result + per-dimension regions +
//	                    metering + cache disposition
//	POST /batchanalyze  {queries: [analyze bodies]}  → per-query
//	                    responses; duplicates are de-duplicated and
//	                    repeats served from the answer cache
//	POST /batchtopk     {queries: [{dims, weights, k}]} → per-query
//	                    ranked results; queries sharing a dimension set
//	                    and k are answered by one fused scan, and
//	                    region-certified repeats come from the cache
//	POST /update        {ops: [{id?, tuple: [{dim, val}]}]} → per-op
//	                    results; an op without id inserts, with id
//	                    updates. Cached analyses survive whenever the
//	                    region certificate proves them unaffected.
//	POST /delete        {ids: [...]}                 → per-op results
//	GET  /stats         → cumulative I/O counters + cache counters +
//	                    mutation counters (mutable engines) + WAL and
//	                    overlay-delta counters (durable engines) +
//	                    replication lag (primaries and standbys)
//	GET  /healthz       → 200 ok (liveness: the process is up)
//	GET  /readyz        → 200 when safe to route traffic here; 503
//	                    with the reason otherwise (engine closed,
//	                    replication lagging, leadership unconfirmed)
//	GET  /cluster       → this node's topology beacon (cluster members
//	                    only; 404 otherwise)
//	POST /promote       → force this node to promote itself to primary
//	                    (cluster members only; operator override)
//
// Request bodies are POST-only, JSON, and capped at 64 MiB (413 beyond).
// On a coordinator front merged answers carry no cache disposition,
// degraded ones (-allow-partial) an X-Partial header and "partial":
// true, and a shard that does not answer is a 502.
//
// A Server is built once, by New, from a Config that fixes its role: a
// Querier accessor plus optional hooks, where a nil hook is a plain
// single node's posture (writes admitted, ready whenever there is a
// Querier, /cluster and /promote 404, no /stats replication block).
//
// A replication standby (irserver -follow) serves the same read
// endpoints over its replayed state but rejects /update and /delete
// with 409 plus a Location header pointing at the primary's HTTP
// address, which its gate reads per request from the replication
// stream; before the first welcome names one it answers 503. See
// docs/replication.md.
//
// # Concurrency model
//
// Queries run concurrently with no server-wide lock; the engine's
// worker pool (Config.MaxConcurrent) is the only throttle, and excess
// requests queue rather than fail. Per-query I/O is metered on a child
// of the index-wide meter, so /analyze responses count exactly their
// own accesses while /stats keeps the exact aggregate. Answers served
// from the immutable-region cache perform zero index I/O and bypass the
// worker pool entirely.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lists"
	"repro/internal/obs"
	"repro/internal/topk"
	"repro/internal/vec"
)

// Querier is the execution surface the server serves: single and
// batched ranked queries and analyses, plus the write path. Answers
// report how they were produced through engine.Source — a cache
// disposition from an engine, SourceMerged/SourcePartial from a
// coordinator.
type Querier interface {
	TopKMetered(ctx context.Context, q vec.Query, k int) ([]topk.Scored, engine.TopKInfo, error)
	Analyze(ctx context.Context, q vec.Query, k int, opts engine.Options) (*engine.Analysis, error)
	TopKBatch(ctx context.Context, items []engine.TopKItem) []engine.TopKResult
	AnalyzeBatch(ctx context.Context, items []engine.BatchItem) []engine.BatchResult
	// Mutable reports whether Apply is enabled; a read-only Querier
	// answers the write endpoints 409 whatever the payload.
	Mutable() bool
	Apply(ops []engine.Op) (engine.ApplyResult, error)
}

// ErrUpstream tags a failure of something the Querier depends on — a
// shard that did not answer its coordinator. The front is then a
// gateway, and the status table answers 502.
var ErrUpstream = errors.New("upstream unavailable")

// Config is what a Server serves through. Querier is required; every
// other hook may be nil, which is the plain single node's posture.
type Config struct {
	// Querier returns the Querier to serve. It is resolved per request
	// so a replication follower can swap its engine (a snapshot re-seed
	// replaces it) under a live server, and may return nil — or a nil
	// *engine.Engine — while there is none: requests then answer 503.
	Querier func() Querier
	// WriteGate is consulted per /update and /delete: allow==false turns
	// the request into a 409 with a Location header pointing at redirect,
	// or a 503 when redirect is "" (no primary known yet). A standby
	// passes replication.Follower.WriteGate, a cluster member
	// replication.Node.WriteGate. Nil admits every write.
	WriteGate func() (allow bool, redirect string)
	// Readiness backs GET /readyz (nil error = ready). Nil: ready
	// whenever there is a Querier to serve.
	Readiness func() error
	// ClusterInfo backs GET /cluster with its value (a
	// replication.ClusterInfo). Nil answers 404: not a cluster member.
	ClusterInfo func() any
	// Promote backs POST /promote, the operator's forced promotion
	// override. Nil answers 404.
	Promote func() (epoch uint64, err error)
	// Replication contributes the /stats "replication" block (a
	// replication.PrimaryStats, FollowerStats or NodeStats). Nil omits it.
	Replication func() any
	// SlowQuery is the slow-query threshold: single queries slower than
	// it are retained in GET /debug/slowlog with per-phase timings and
	// I/O counts. <= 0 disables recording; cmd/irserver's -slow-query
	// flag defaults to DefaultSlowQuery.
	SlowQuery time.Duration
}

// Server handles the HTTP API over one Config.
type Server struct {
	cfg  Config
	slow *obs.SlowLog // the ring behind GET /debug/slowlog
}

// New builds a Server from a copy of cfg, so its role is fixed here.
func New(cfg Config) *Server {
	return &Server{cfg: cfg, slow: obs.NewSlowLog(cfg.SlowQuery, slowLogCapacity)}
}

// FromEngine builds a Server over one fixed engine with the
// DefaultSlowQuery threshold. It stays for bench/ladder.go, which may
// not change before ROADMAP item 2 moves the ladder onto the binaries'
// surface and removes it; everything else calls New.
func FromEngine(eng *engine.Engine) *Server {
	return New(Config{Querier: func() Querier { return eng }, SlowQuery: DefaultSlowQuery})
}

// SetClusterInfo sets Config.ClusterInfo after New, before the server
// handles traffic. It stays for bench/ladder.go, which may not change
// before ROADMAP item 2 removes it; everything else sets the field.
func (s *Server) SetClusterInfo(fn func() any) { s.cfg.ClusterInfo = fn }

// current resolves the Querier to serve: nil while there is none. A nil
// *engine.Engine (a standby mid-re-seed) is none too, never a typed-nil
// Querier.
func (s *Server) current() Querier {
	qr := s.cfg.Querier()
	if eng, ok := qr.(*engine.Engine); ok && eng == nil {
		return nil
	}
	return qr
}

// engine returns the served engine behind /stats and the bridge
// gauges: nil while a standby re-seeds, and on a coordinator front,
// which has no engine of its own.
func (s *Server) engine() *engine.Engine {
	eng, _ := s.current().(*engine.Engine)
	return eng
}

// querier resolves the Querier for one request, answering 503 when a
// standby is mid-re-seed.
func (s *Server) querier(w http.ResponseWriter) (Querier, bool) {
	qr := s.current()
	if qr == nil {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("standby is re-seeding from the primary"))
		return nil, false
	}
	return qr, true
}

// Handler returns the routed http.Handler. Every endpoint runs inside
// the instrumentation wrapper (request/error counters, latency
// histogram, in-flight gauge) and the whole mux behind the request-ID
// middleware, so each response carries an X-Request-ID that the
// structured logs and the slow-query log share.
func (s *Server) Handler() http.Handler {
	liveServer.Store(s)
	mux := http.NewServeMux()
	mux.HandleFunc("/topk", s.instrument("topk", s.handleTopK))
	mux.HandleFunc("/analyze", s.instrument("analyze", s.handleAnalyze))
	mux.HandleFunc("/batchanalyze", s.instrument("batchanalyze", s.handleBatchAnalyze))
	mux.HandleFunc("/batchtopk", s.instrument("batchtopk", s.handleBatchTopK))
	mux.HandleFunc("/shard/topk", s.instrument("shard-topk", s.handleShardTopK))
	mux.HandleFunc("/shard/analyze", s.instrument("shard-analyze", s.handleShardAnalyze))
	mux.HandleFunc("/update", s.instrument("update", s.handleUpdate))
	mux.HandleFunc("/delete", s.instrument("delete", s.handleDelete))
	mux.HandleFunc("/stats", s.instrument("stats", s.handleStats))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness only: the process is up and serving. Routing and
		// restart decisions belong to /readyz. Deliberately outside the
		// instrumentation wrapper — a liveness probe that allocates
		// metrics labels under memory pressure defeats its purpose.
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", s.instrument("readyz", s.handleReadyz))
	mux.HandleFunc("/cluster", s.instrument("cluster", s.handleCluster))
	mux.HandleFunc("/promote", s.instrument("promote", s.handlePromote))
	mux.Handle("/metrics", obs.Handler())
	mux.HandleFunc("/debug/slowlog", s.handleSlowlog)
	return obs.RequestID(mux)
}

// handleReadyz reports whether this node should receive traffic: 200
// when ready, 503 with the reason otherwise. Without an installed
// readiness check, ready means there is a Querier to serve (the engine
// is open, not mid-re-seed).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Readiness != nil {
		if err := s.cfg.Readiness(); err != nil {
			httpError(w, http.StatusServiceUnavailable, fmt.Errorf("not ready: %v", err))
			return
		}
	} else if s.current() == nil {
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("not ready: engine not open"))
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// handleCluster serves the node's topology beacon; 404 on nodes that
// are not cluster members.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	if s.cfg.ClusterInfo == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("not a cluster member"))
		return
	}
	writeJSON(w, http.StatusOK, s.cfg.ClusterInfo())
}

// handlePromote forces this node to promote itself to primary — the
// operator override documented in docs/operations.md.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Promote == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("not a cluster member"))
		return
	}
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	epoch, err := s.cfg.Promote()
	if err != nil {
		httpError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]uint64{"epoch": epoch})
}

// QueryRequest is the body of /topk and /analyze, and one element of
// /batchanalyze's queries.
type QueryRequest struct {
	Dims    []int     `json:"dims"`
	Weights []float64 `json:"weights"`
	K       int       `json:"k"`
	// analyze-only fields
	Phi             int    `json:"phi"`
	Method          string `json:"method"` // scan|prune|thres|cpt (default cpt)
	CompositionOnly bool   `json:"composition_only"`
	// NoCache bypasses the answer cache for this query (no lookup, no
	// admission).
	NoCache bool `json:"no_cache"`
}

// ResultEntry is one ranked answer.
type ResultEntry struct {
	ID    int     `json:"id"`
	Score float64 `json:"score"`
}

// RegionJSON is one dimension's immutable regions.
type RegionJSON struct {
	Dim   int                 `json:"dim"`
	Lo    float64             `json:"lo"`
	Hi    float64             `json:"hi"`
	Left  []core.Perturbation `json:"left,omitempty"`
	Right []core.Perturbation `json:"right,omitempty"`
}

// AnalyzeResponse is the body of a successful /analyze. Cache reports
// the disposition: "miss" (computed and admitted), "hit" (served from
// a cached analysis, zero index I/O), "bypass" (no_cache requested) or
// "dedup" (shared with an identical query in the same batch).
type AnalyzeResponse struct {
	Result  []ResultEntry `json:"result"`
	Regions []RegionJSON  `json:"regions"`
	Metrics MetricsJSON   `json:"metrics"`
	Cache   string        `json:"cache,omitempty"`
	// Partial marks a degraded scatter-gather answer merged without
	// every shard (coordinator deployments with -allow-partial only).
	// A partial region is NOT a certificate — the missing shards'
	// constraints are absent.
	Partial bool `json:"partial,omitempty"`
}

// MetricsJSON carries the metering of one analysis.
type MetricsJSON struct {
	Evaluated    int     `json:"evaluated"`
	EvaluatedAvg float64 `json:"evaluated_per_dim"`
	SeqPages     int64   `json:"seq_pages"`
	RandReads    int64   `json:"rand_reads"`
	CPUMicros    int64   `json:"cpu_us"`
	MemBytes     int64   `json:"mem_bytes"`
}

// BatchAnalyzeRequest is the body of /batchanalyze.
type BatchAnalyzeRequest struct {
	Queries []QueryRequest `json:"queries"`
}

// BatchEntryResponse is one element of a /batchanalyze response: an
// AnalyzeResponse on success, or Error with the other fields empty.
type BatchEntryResponse struct {
	AnalyzeResponse
	Error string `json:"error,omitempty"`
}

// BatchAnalyzeResponse is the body of a successful /batchanalyze;
// Responses is parallel to the request's Queries.
type BatchAnalyzeResponse struct {
	Responses []BatchEntryResponse `json:"responses"`
}

// BatchTopKRequest is the body of /batchtopk; only dims, weights and k
// of each query are consulted.
type BatchTopKRequest struct {
	Queries []QueryRequest `json:"queries"`
}

// TopKEntryResponse is one element of a /batchtopk response: the ranked
// result and its cache disposition, or Error with the rest empty.
type TopKEntryResponse struct {
	Result []ResultEntry `json:"result,omitempty"`
	Cache  string        `json:"cache,omitempty"`
	// Partial marks a degraded scatter-gather answer, as in
	// AnalyzeResponse.
	Partial bool   `json:"partial,omitempty"`
	Error   string `json:"error,omitempty"`
}

// BatchTopKResponse is the body of a successful /batchtopk; Responses
// is parallel to the request's Queries.
type BatchTopKResponse struct {
	Responses []TopKEntryResponse `json:"responses"`
}

// UpdateOpJSON is one element of /update's ops: without an id the tuple
// is inserted, with an id it replaces that tuple.
type UpdateOpJSON struct {
	ID    *int        `json:"id,omitempty"`
	Tuple []vec.Entry `json:"tuple"`
}

// UpdateRequest is the body of /update.
type UpdateRequest struct {
	Ops []UpdateOpJSON `json:"ops"`
}

// DeleteRequest is the body of /delete.
type DeleteRequest struct {
	IDs []int `json:"ids"`
}

// OpResultJSON is one per-op outcome of /update or /delete: the
// assigned (insert) or targeted id, or the op's error.
type OpResultJSON struct {
	ID    int    `json:"id"`
	Error string `json:"error,omitempty"`
}

// MutateResponse is the body of a successful /update or /delete:
// per-op results plus the cache-invalidation accounting — how many
// cached analyses were checked against the region certificate, how many
// were evicted, and how many provably survived the batch.
type MutateResponse struct {
	Results       []OpResultJSON `json:"results"`
	Applied       int            `json:"applied"`
	CacheChecked  int            `json:"cache_checked"`
	CacheEvicted  int            `json:"cache_evicted"`
	CacheSurvived int            `json:"cache_survived"`
}

// BuildJSON identifies the running binary: the -ldflags-injected
// version and commit plus process start time and uptime.
type BuildJSON struct {
	Version       string  `json:"version"`
	Commit        string  `json:"commit"`
	StartTimeUnix int64   `json:"start_time_unix"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// StatsResponse is the body of /stats. Replication carries a
// replication.PrimaryStats or replication.FollowerStats when this
// server is part of a replication pair (see docs/operations.md for the
// field glossary).
type StatsResponse struct {
	Build     BuildJSON `json:"build"`
	SeqPages  int64     `json:"seq_pages"`
	RandReads int64     `json:"rand_reads"`
	BytesRead int64     `json:"bytes_read"`
	// PoolBypass counts page-equivalent accesses served straight from
	// the mmap'd region, bypassing the buffer pool (always 0 on nommap
	// builds or pread-backed stores).
	PoolBypass  int64                   `json:"pool_bypass"`
	Cache       *engine.CacheStats      `json:"cache,omitempty"`
	Mutations   *engine.MutationStats   `json:"mutations,omitempty"`
	WAL         *engine.DurabilityStats `json:"wal,omitempty"`
	Overlay     *lists.DeltaStats       `json:"overlay,omitempty"`
	Replication any                     `json:"replication,omitempty"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	req, q, _, ok := decodeQuery(w, r, true)
	if !ok {
		return
	}
	qr, ok := s.querier(w)
	if !ok {
		return
	}
	t0 := time.Now()
	res, info, err := qr.TopKMetered(r.Context(), q, req.K)
	if err != nil {
		engineError(w, err)
		return
	}
	total := time.Since(t0)
	observeDisposition(info.Source)
	// TopK has no region phase; the scan phase is what remains of the
	// total once the envelope (validate, cache probe, queue wait) is
	// taken out.
	scan := total - info.Timings.Validate - info.Timings.Cache - info.Timings.Queue
	if scan < 0 {
		scan = 0
	}
	s.recordSlow(r, "topk", req, info.Source, total, info.Timings,
		scan, 0, info.SeqPages, info.RandReads)
	if cache := cacheField(info.Source); cache != "" {
		w.Header().Set("X-Cache", cache)
	}
	markPartial(w, info.Source)
	writeJSON(w, http.StatusOK, toEntries(res))
}

// cacheField is the cache disposition a response reports: none for a
// coordinator's merged answer, which consulted no cache.
func cacheField(src engine.Source) string {
	if src == engine.SourceMerged || src == engine.SourcePartial {
		return ""
	}
	return src.String()
}

// markPartial flags a degraded scatter-gather answer (merged without
// every shard) in the response header.
func markPartial(w http.ResponseWriter, src engine.Source) {
	if src == engine.SourcePartial {
		w.Header().Set("X-Partial", "true")
	}
}

// parseQuery maps a read request to the engine's terms. Every read
// route — single, batch and shard — comes through here, so this is the
// one place the server turns a query away before the Querier sees it,
// and the one place it counts that; what the Querier's own gate refuses
// is counted where its error is mapped. ranked routes (/topk and its
// twins) read no options, so a method they would not use cannot fail
// them.
func parseQuery(req QueryRequest, ranked bool) (vec.Query, engine.Options, error) {
	q, err := vec.NewQuery(req.Dims, req.Weights)
	method := core.MethodCPT
	if err == nil && !ranked {
		if method, err = parseMethod(req.Method); err != nil {
			err = fmt.Errorf("%w: %v", engine.ErrInvalid, err)
		}
	}
	if err != nil {
		mValidationFailures.Inc()
		return vec.Query{}, engine.Options{}, err
	}
	return q, engine.Options{
		Options: core.Options{
			Method:          method,
			Phi:             req.Phi,
			CompositionOnly: req.CompositionOnly,
		},
		NoCache: req.NoCache,
	}, nil
}

// toMetricsJSON renders one computation's metering.
func toMetricsJSON(m core.Metrics) MetricsJSON {
	return MetricsJSON{
		Evaluated:    m.Evaluated,
		EvaluatedAvg: m.EvaluatedPerDimAvg(),
		SeqPages:     m.SeqPages,
		RandReads:    m.RandReads,
		CPUMicros:    m.CPU().Microseconds(),
		MemBytes:     m.MemBytes,
	}
}

// toRegionsJSON converts computed regions to the wire form (nil, so
// JSON null, when there are none).
func toRegionsJSON(regions []core.Regions) []RegionJSON {
	var out []RegionJSON
	for _, reg := range regions {
		out = append(out, RegionJSON{Dim: reg.Dim, Lo: reg.Lo, Hi: reg.Hi, Left: reg.Left, Right: reg.Right})
	}
	return out
}

// FromRegionsJSON converts wire regions, one per query dimension in
// query order, back to the computed form.
func FromRegionsJSON(regions []RegionJSON) []core.Regions {
	out := make([]core.Regions, len(regions))
	for jx, rj := range regions {
		out[jx] = core.Regions{Dim: rj.Dim, QPos: jx, Lo: rj.Lo, Hi: rj.Hi, Left: rj.Left, Right: rj.Right}
	}
	return out
}

// toAnalyzeResponse renders one completed analysis.
func toAnalyzeResponse(a *engine.Analysis) AnalyzeResponse {
	return AnalyzeResponse{
		Result:  toEntries(a.Result),
		Regions: toRegionsJSON(a.Regions),
		Metrics: toMetricsJSON(a.Metrics),
		Cache:   cacheField(a.Source),
		Partial: a.Source == engine.SourcePartial,
	}
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	req, q, opts, ok := decodeQuery(w, r, false)
	if !ok {
		return
	}
	qr, ok := s.querier(w)
	if !ok {
		return
	}
	t0 := time.Now()
	a, err := qr.Analyze(r.Context(), q, req.K, opts)
	if err != nil {
		engineError(w, err)
		return
	}
	total := time.Since(t0)
	observeDisposition(a.Source)
	// Scan is the TA phase-1 walk; region is the perturbation sweep
	// (phases 2 and 3 of §5). Both are zero on cache hits.
	s.recordSlow(r, "analyze", req, a.Source, total, a.Timings,
		a.Metrics.Phase1, a.Metrics.Phase2+a.Metrics.Phase3,
		a.Metrics.SeqPages, a.Metrics.RandReads)
	markPartial(w, a.Source)
	writeJSON(w, http.StatusOK, toAnalyzeResponse(a))
}

func (s *Server) handleBatchAnalyze(w http.ResponseWriter, r *http.Request) {
	var req BatchAnalyzeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	// Per-item shape errors are reported in place; valid items still
	// run, so one malformed query cannot sink a fleet batch. An invalid
	// item counts as a validation failure, as it does sent alone.
	items := make([]engine.BatchItem, 0, len(req.Queries))
	itemIdx := make([]int, 0, len(req.Queries))
	resp := BatchAnalyzeResponse{Responses: make([]BatchEntryResponse, len(req.Queries))}
	for i, qr := range req.Queries {
		q, opts, err := parseQuery(qr, false)
		if err != nil {
			resp.Responses[i] = BatchEntryResponse{Error: err.Error()}
			continue
		}
		items = append(items, engine.BatchItem{Q: q, K: qr.K, Opts: opts})
		itemIdx = append(itemIdx, i)
	}
	qr, ok := s.querier(w)
	if !ok {
		return
	}
	for j, res := range qr.AnalyzeBatch(r.Context(), items) {
		i := itemIdx[j]
		if itemFailed(w, res.Err) {
			return
		}
		if res.Err != nil {
			resp.Responses[i] = BatchEntryResponse{Error: res.Err.Error()}
			continue
		}
		observeDisposition(res.Analysis.Source)
		resp.Responses[i] = BatchEntryResponse{AnalyzeResponse: toAnalyzeResponse(res.Analysis)}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleBatchTopK answers a batch of ranked queries through the
// engine's fused scan path: queries sharing a dimension set and k cost
// roughly one scan for the whole group.
func (s *Server) handleBatchTopK(w http.ResponseWriter, r *http.Request) {
	var req BatchTopKRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("empty batch"))
		return
	}
	// Per-item shape errors are reported in place, like /batchanalyze.
	items := make([]engine.TopKItem, 0, len(req.Queries))
	itemIdx := make([]int, 0, len(req.Queries))
	resp := BatchTopKResponse{Responses: make([]TopKEntryResponse, len(req.Queries))}
	for i, qr := range req.Queries {
		q, _, err := parseQuery(qr, true)
		if err != nil {
			resp.Responses[i] = TopKEntryResponse{Error: err.Error()}
			continue
		}
		items = append(items, engine.TopKItem{Q: q, K: qr.K})
		itemIdx = append(itemIdx, i)
	}
	qr, ok := s.querier(w)
	if !ok {
		return
	}
	for j, res := range qr.TopKBatch(r.Context(), items) {
		i := itemIdx[j]
		if itemFailed(w, res.Err) {
			return
		}
		if res.Err != nil {
			resp.Responses[i] = TopKEntryResponse{Error: res.Err.Error()}
			continue
		}
		observeDisposition(res.Source)
		resp.Responses[i] = TopKEntryResponse{
			Result:  toEntries(res.Result),
			Cache:   cacheField(res.Source),
			Partial: res.Source == engine.SourcePartial,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleUpdate applies a batch of inserts and in-place updates through
// the engine's write path.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Ops) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("empty op batch"))
		return
	}
	// Tuple-shape errors (duplicate dims, bad values) are reported in
	// place; well-formed ops still run, like /batchanalyze's per-item
	// errors.
	results := make([]OpResultJSON, len(req.Ops))
	ops := make([]engine.Op, 0, len(req.Ops))
	opIdx := make([]int, 0, len(req.Ops))
	for i, op := range req.Ops {
		t, err := vec.NewSparse(op.Tuple)
		if err == nil && t.NNZ() == 0 {
			// An op without coordinates is almost always a malformed
			// request (a typoed field, or delete intent aimed at the
			// wrong endpoint); silently zeroing the target would destroy
			// it with a 200.
			err = fmt.Errorf("empty tuple (use /delete to remove a tuple)")
		}
		if err != nil {
			id := -1
			if op.ID != nil {
				id = *op.ID
			}
			results[i] = OpResultJSON{ID: id, Error: err.Error()}
			continue
		}
		if op.ID != nil {
			ops = append(ops, engine.Op{Kind: engine.OpUpdate, ID: *op.ID, Tuple: t})
		} else {
			ops = append(ops, engine.Op{Kind: engine.OpInsert, Tuple: t})
		}
		opIdx = append(opIdx, i)
	}
	s.applyOps(w, r, ops, opIdx, results)
}

// handleDelete removes tuples by id through the engine's write path.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req DeleteRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.IDs) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("empty id list"))
		return
	}
	ops := make([]engine.Op, len(req.IDs))
	opIdx := make([]int, len(req.IDs))
	for i, id := range req.IDs {
		ops[i] = engine.Op{Kind: engine.OpDelete, ID: id}
		opIdx[i] = i
	}
	s.applyOps(w, r, ops, opIdx, make([]OpResultJSON, len(req.IDs)))
}

// applyOps runs the batch and renders the shared mutation response.
// results arrives pre-filled with any per-op shape errors; opIdx maps
// each engine op back to its response slot.
func (s *Server) applyOps(w http.ResponseWriter, r *http.Request, ops []engine.Op, opIdx []int, results []OpResultJSON) {
	if s.cfg.WriteGate != nil {
		if allow, redirect := s.cfg.WriteGate(); !allow {
			// This node must not take the write — it is a standby, a
			// deposed primary, or an unconfirmed one. With a known
			// primary the client gets a 409 plus Location; without one,
			// a retryable 503.
			if redirect == "" {
				httpError(w, http.StatusServiceUnavailable, fmt.Errorf("no confirmed primary known; retry shortly"))
				return
			}
			w.Header().Set("Location", redirect+r.URL.Path)
			httpError(w, http.StatusConflict, fmt.Errorf("not the primary: writes go to %s", redirect))
			return
		}
	}
	qr, ok := s.querier(w)
	if !ok {
		return
	}
	if !qr.Mutable() {
		// Report read-only consistently (409) no matter the payload
		// shape — even when every op already failed parsing.
		engineError(w, fmt.Errorf("server: %w", engine.ErrImmutable))
		return
	}
	resp := MutateResponse{Results: results}
	if len(ops) > 0 {
		res, err := qr.Apply(ops)
		if err != nil {
			engineError(w, err)
			return
		}
		for j, or := range res.Results {
			results[opIdx[j]] = OpResultJSON{ID: or.ID}
			if or.Err != nil {
				results[opIdx[j]].Error = or.Err.Error()
			}
		}
		resp.Applied = res.Applied
		resp.CacheChecked = res.CacheChecked
		resp.CacheEvicted = res.CacheEvicted
		resp.CacheSurvived = res.CacheSurvived
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp StatsResponse
	resp.Build = BuildJSON{
		Version:       obs.Version,
		Commit:        obs.Commit,
		StartTimeUnix: obs.StartTime().Unix(),
		UptimeSeconds: obs.Uptime().Seconds(),
	}
	if s.cfg.Replication != nil {
		resp.Replication = s.cfg.Replication()
	}
	eng := s.engine()
	if eng == nil {
		// A standby mid-re-seed has no engine, but its replication
		// block (connected, snapshots_loaded, last_error) is exactly
		// what an operator watching the re-seed needs — serve it with
		// the engine-derived blocks absent instead of a blanket 503.
		// A coordinator front never has one: its shards keep their own.
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp.SeqPages, resp.RandReads, resp.BytesRead = eng.Stats().Snapshot()
	resp.PoolBypass = eng.Stats().Bypasses()
	if eng.Mutable() {
		ms := eng.MutationStats()
		resp.Mutations = &ms
	}
	if eng.Durable() {
		ds := eng.DurabilityStats()
		resp.WAL = &ds
	}
	if ov, ok := eng.OverlayStats(); ok {
		resp.Overlay = &ov
	}
	if eng.CacheEnabled() {
		cs := eng.CacheStats()
		resp.Cache = &cs
	}
	writeJSON(w, http.StatusOK, resp)
}

func toEntries(res []topk.Scored) []ResultEntry {
	out := make([]ResultEntry, len(res))
	for i, sc := range res {
		out[i] = ResultEntry{ID: sc.ID, Score: sc.Score}
	}
	return out
}

// methodNames is the wire spelling of each core.Method.
var methodNames = [...]string{
	core.MethodScan:  "scan",
	core.MethodPrune: "prune",
	core.MethodThres: "thres",
	core.MethodCPT:   "cpt",
}

// MethodName is the wire spelling of m, parseMethod's inverse.
func MethodName(m core.Method) string { return methodNames[m] }

// parseMethod reads a request's method field; empty picks the paper's
// full algorithm.
func parseMethod(s string) (core.Method, error) {
	if s == "" {
		return core.MethodCPT, nil
	}
	for m, name := range methodNames {
		if s == name {
			return core.Method(m), nil
		}
	}
	return 0, fmt.Errorf("unknown method %q", s)
}

// maxBodyBytes bounds every request body, the cap internal/client
// already applies to response bodies. The largest legitimate payloads —
// /shard/analyze's imposed result, a bulk /update — are far below it.
const maxBodyBytes = 64 << 20

// decodeBody is the one place a request body is read: POST only, at
// most maxBodyBytes, one JSON value into v. It answers the failure
// itself and reports whether the handler should go on.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return false
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", tooBig.Limit))
			return false
		}
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad JSON: %v", err))
		return false
	}
	return true
}

// decodeQuery reads and parses the body of /topk, /analyze and
// /shard/topk, answering a failure itself; structural validation beyond
// the query shape (k, dimension range, φ) is the Querier's job.
func decodeQuery(w http.ResponseWriter, r *http.Request, ranked bool) (req QueryRequest, q vec.Query, opts engine.Options, ok bool) {
	if !decodeBody(w, r, &req) {
		return req, q, opts, false
	}
	q, opts, err := parseQuery(req, ranked)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
	}
	return req, q, opts, err == nil
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing sensible left to do.
		_ = err
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// itemFailed answers a batch whose item failed for a reason other than
// its own validity (a failed read, a cancellation) as that item alone
// would be, and reports whether it did. Invalid items are counted here.
func itemFailed(w http.ResponseWriter, err error) bool {
	if errors.Is(err, engine.ErrInvalid) {
		mValidationFailures.Inc()
		return false
	}
	if err != nil {
		engineError(w, err)
	}
	return err != nil
}

// engineError maps a Querier failure to an HTTP status: validation
// faults are the client's, cancellations mean the client is gone, a
// missed replication quorum is a (dependency-)unavailability the client
// must treat as indeterminate — the batch is committed locally but not
// replication-durable — an unanswering shard makes a coordinator front
// a failed gateway, and the rest are ours.
func engineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, engine.ErrInvalid):
		mValidationFailures.Inc()
		httpError(w, http.StatusBadRequest, err)
	case errors.Is(err, engine.ErrImmutable):
		httpError(w, http.StatusConflict, err)
	case errors.Is(err, engine.ErrFenced):
		// A deposed primary: the write was refused before any local
		// effect; clients should rediscover the primary and retry there.
		httpError(w, http.StatusConflict, err)
	case errors.Is(err, engine.ErrQuorum):
		// The batch is committed locally but its replication durability
		// is unknown — mark the failure indeterminate so well-behaved
		// clients (internal/client) do not blindly retry and double-
		// apply it.
		w.Header().Set("X-Indeterminate", "true")
		httpError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrUpstream):
		httpError(w, http.StatusBadGateway, err)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusServiceUnavailable, err)
	default:
		httpError(w, http.StatusInternalServerError, err)
	}
}
