// Observability: the HTTP layer's obs registrations, the per-endpoint
// instrumentation wrapper, the engine-state gauge bridges, and the
// slow-query log plumbing.
//
// The bridges read the exact snapshot functions /stats renders
// (engine.Stats, CacheStats, DurabilityStats, OverlayStats,
// MutationStats) through the most recently built server's engine
// provider, so GET /stats and GET /metrics cannot drift apart (on a
// coordinator front, which has no engine, they read 0). A
// process hosts one server outside of tests; where several share a
// process the bridge follows the last Handler() built, and each
// server's /stats stays exact regardless.
package server

import (
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

var (
	mRequests = obs.NewCounterVec("ir_http_requests_total",
		"HTTP requests served, by endpoint", "endpoint")
	mErrors = obs.NewCounterVec("ir_http_errors_total",
		"HTTP responses with a 4xx/5xx status, by endpoint", "endpoint")
	mLatencySeconds = obs.NewHistogramVec("ir_http_request_seconds",
		"request latency by endpoint", "endpoint", obs.LatencyBuckets)
	mInFlight = obs.NewGauge("ir_http_in_flight",
		"requests currently being handled")
	mDisposition = obs.NewCounterVec("ir_http_cache_disposition_total",
		"query answers by cache disposition (miss, hit, hit-region, bypass, dedup; merged on a shard coordinator)",
		"disposition")
	mValidationFailures = obs.NewCounter("ir_http_validation_failures_total",
		"requests rejected by query validation (bad k, dimension range, weights, phi)")
	mSlowQueries = obs.NewCounter("ir_http_slow_queries_total",
		"queries recorded in the slow-query ring (over the -slow-query threshold)")
)

// liveServer is the server whose engine the bridge gauges sample; the
// most recent Handler() call wins.
var liveServer atomic.Pointer[Server]

// engineStat adapts a per-engine sampler into a scrape callback that
// is nil-safe across server construction and standby re-seeds.
func engineStat(f func(*engine.Engine) float64) func() float64 {
	return func() float64 {
		srv := liveServer.Load()
		if srv == nil {
			return 0
		}
		eng := srv.engine()
		if eng == nil {
			return 0
		}
		return f(eng)
	}
}

// The /stats bridge gauges. Counters underneath only go up, but they
// are exposed as gauges: a standby re-seed swaps the engine and its
// counters restart, which a Prometheus counter contract would forbid.
var (
	_ = obs.NewGaugeFunc("ir_io_seq_pages",
		"index-wide sequential page reads (storage.IOStats)",
		engineStat(func(e *engine.Engine) float64 { seq, _, _ := e.Stats().Snapshot(); return float64(seq) }))
	_ = obs.NewGaugeFunc("ir_io_rand_reads",
		"index-wide random tuple reads (storage.IOStats)",
		engineStat(func(e *engine.Engine) float64 { _, rr, _ := e.Stats().Snapshot(); return float64(rr) }))
	_ = obs.NewGaugeFunc("ir_io_bytes_read",
		"index-wide bytes read (storage.IOStats)",
		engineStat(func(e *engine.Engine) float64 { _, _, b := e.Stats().Snapshot(); return float64(b) }))
	_ = obs.NewGaugeFunc("ir_io_pool_bypass",
		"tuple-record reads served from the mapping",
		engineStat(func(e *engine.Engine) float64 { return float64(e.Stats().Bypasses()) }))

	_ = obs.NewGaugeFunc("ir_cache_entries",
		"answer-cache entries resident",
		engineStat(func(e *engine.Engine) float64 { return float64(e.CacheStats().Entries) }))
	_ = obs.NewGaugeFunc("ir_cache_bytes",
		"answer-cache estimated resident bytes",
		engineStat(func(e *engine.Engine) float64 { return float64(e.CacheStats().Bytes) }))
	_ = obs.NewGaugeFunc("ir_cache_hits",
		"exact-weight analysis cache hits since this engine opened",
		engineStat(func(e *engine.Engine) float64 { return float64(e.CacheStats().Hits) }))
	_ = obs.NewGaugeFunc("ir_cache_region_hits",
		"region-certified top-k cache hits since this engine opened",
		engineStat(func(e *engine.Engine) float64 { return float64(e.CacheStats().RegionHits) }))
	_ = obs.NewGaugeFunc("ir_cache_misses",
		"answer-cache misses since this engine opened",
		engineStat(func(e *engine.Engine) float64 { return float64(e.CacheStats().Misses) }))
	_ = obs.NewGaugeFunc("ir_cache_bypasses",
		"lookups skipped by request (no_cache) since this engine opened",
		engineStat(func(e *engine.Engine) float64 { return float64(e.CacheStats().Bypasses) }))
	_ = obs.NewGaugeFunc("ir_cache_evictions",
		"answer-cache LRU evictions since this engine opened",
		engineStat(func(e *engine.Engine) float64 { return float64(e.CacheStats().Evictions) }))

	_ = obs.NewGaugeFunc("ir_wal_generation",
		"live checkpoint generation of the durable engine (0 = original files)",
		engineStat(func(e *engine.Engine) float64 { return float64(e.DurabilityStats().Generation) }))
	_ = obs.NewGaugeFunc("ir_wal_next_seq",
		"sequence number the next Apply batch will get",
		engineStat(func(e *engine.Engine) float64 { return float64(e.DurabilityStats().NextSeq) }))
	_ = obs.NewGaugeFunc("ir_wal_log_bytes",
		"current write-ahead-log length in bytes",
		engineStat(func(e *engine.Engine) float64 { return float64(e.DurabilityStats().LogBytes) }))
	_ = obs.NewGaugeFunc("ir_wal_appends",
		"WAL record appends since this engine opened",
		engineStat(func(e *engine.Engine) float64 { return float64(e.DurabilityStats().Appends) }))
	_ = obs.NewGaugeFunc("ir_wal_syncs",
		"WAL fsyncs since this engine opened",
		engineStat(func(e *engine.Engine) float64 { return float64(e.DurabilityStats().Syncs) }))
	_ = obs.NewGaugeFunc("ir_wal_checkpoints",
		"checkpoint compactions completed since this engine opened",
		engineStat(func(e *engine.Engine) float64 { return float64(e.DurabilityStats().Checkpoints) }))

	_ = obs.NewGaugeFunc("ir_overlay_delta_bytes",
		"write overlay in-memory delta size (what checkpointing bounds)",
		engineStat(func(e *engine.Engine) float64 {
			ov, ok := e.OverlayStats()
			if !ok {
				return 0
			}
			return float64(ov.Bytes)
		}))

	_ = obs.NewGaugeFunc("ir_mutation_ops",
		"mutation ops applied (inserts + updates + deletes) since this engine opened",
		engineStat(func(e *engine.Engine) float64 {
			ms := e.MutationStats()
			return float64(ms.Inserts + ms.Updates + ms.Deletes)
		}))
	_ = obs.NewGaugeFunc("ir_mutation_batches",
		"Apply batches since this engine opened",
		engineStat(func(e *engine.Engine) float64 { return float64(e.MutationStats().Batches) }))
)

// DefaultSlowQuery is the slow-query threshold of FromEngine, of a
// coordinator front, and of irserver when no -slow-query flag
// overrides it.
const DefaultSlowQuery = 500 * time.Millisecond

// slowLogCapacity is the ring size of the slow-query log.
const slowLogCapacity = 128

// instrument wraps one endpoint handler with the request counter, the
// error counter, the latency histogram and the in-flight gauge. The
// endpoint label is the route literal from Handler(), never the
// request path.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		mInFlight.Add(1)
		defer mInFlight.Add(-1)
		t0 := time.Now()
		rec := obs.NewStatusRecorder(w)
		h(rec, r)
		//lint:allow obsreg endpoint is the route literal passed by Handler, a closed set
		mRequests.Inc(endpoint)
		if rec.Code >= 400 {
			//lint:allow obsreg endpoint is the route literal passed by Handler, a closed set
			mErrors.Inc(endpoint)
		}
		//lint:allow obsreg endpoint is the route literal passed by Handler, a closed set
		mLatencySeconds.Observe(endpoint, time.Since(t0).Seconds())
	}
}

// observeDisposition counts one answered query's cache disposition.
func observeDisposition(src engine.Source) {
	//lint:allow obsreg Source.String renders the closed engine.Source enum, not request data
	mDisposition.Inc(src.String())
}

// recordSlow feeds one answered single-query request into the slow
// log. The under-threshold exit happens before any allocation so the
// hot path stays allocation-free.
func (s *Server) recordSlow(r *http.Request, endpoint string, req QueryRequest,
	src engine.Source, total time.Duration, tm engine.Timings,
	scan, region time.Duration, seqPages, randReads int64) {
	sl := s.slow
	if sl.Threshold() <= 0 || total < sl.Threshold() {
		return
	}
	ms := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	entry := obs.SlowEntry{
		Time:       time.Now(),
		RequestID:  obs.RequestIDFrom(r.Context()),
		Endpoint:   endpoint,
		Dims:       req.Dims,
		K:          req.K,
		Method:     req.Method,
		Cache:      src.String(),
		DurationMs: ms(total),
		PhaseMs: obs.PhaseMillis{
			Validate: ms(tm.Validate),
			Queue:    ms(tm.Queue),
			Cache:    ms(tm.Cache),
			Scan:     ms(scan),
			Region:   ms(region),
			Admit:    ms(tm.Admit),
		},
		SeqPages:  seqPages,
		RandReads: randReads,
	}
	if sl.Record(entry) {
		mSlowQueries.Inc()
		obs.LogWith(r.Context()).Warn("slow_query",
			"endpoint", endpoint,
			"duration_ms", entry.DurationMs,
			"k", req.K,
			"cache", entry.Cache,
			"seq_pages", seqPages,
			"rand_reads", randReads,
		)
	}
}

// handleSlowlog serves GET /debug/slowlog: the retained over-threshold
// queries (newest first) with the recording threshold and the all-time
// count.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	entries, total := s.slow.Snapshot()
	writeJSON(w, http.StatusOK, SlowlogResponse{
		ThresholdMs: float64(s.slow.Threshold().Microseconds()) / 1000,
		Recorded:    total,
		Entries:     entries,
	})
}

// SlowlogResponse is the body of GET /debug/slowlog.
type SlowlogResponse struct {
	// ThresholdMs is the recording threshold (<= 0: recording disabled).
	ThresholdMs float64 `json:"threshold_ms"`
	// Recorded counts every query that crossed the threshold since
	// start; the ring retains only the most recent of them.
	Recorded int64           `json:"recorded"`
	Entries  []obs.SlowEntry `json:"entries"`
}
