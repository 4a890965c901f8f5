// Observability: the engine's obs registrations and the per-query
// timing envelope. Metrics are package-level vars (registered once at
// init — the obsreg analyzer enforces it) and process-wide: several
// engines in one process (tests, a demoted-then-promoted node) share
// them, which is the Prometheus-normal aggregation.
//
// The deterministic core stays clock-free: everything here is timed in
// the engine envelope (time.Now is legal in this package) or read back
// from core.Metrics, whose phases the core filled through its single
// stopwatch seam.
package engine

import (
	"time"

	"repro/internal/obs"
	"repro/internal/topk"
)

var (
	mQueries = obs.NewCounterVec("ir_engine_queries_total",
		"queries answered by the engine, by kind", "kind")
	mSortedAccesses = obs.NewHistogram("ir_engine_ta_sorted_accesses",
		"TA sorted accesses per computed query (the paper's stopping depth)",
		obs.CountBuckets)
	mPhaseSeconds = obs.NewHistogramVec("ir_engine_phase_seconds",
		"per-phase computation time of one analysis: scan is the TA phase, evaluate the must-appear region pass, pulls the best-k-bounds deepening",
		"phase", obs.LatencyBuckets)
	mApplySeconds = obs.NewHistogram("ir_engine_apply_seconds",
		"wall time of one Apply mutation batch (WAL append + replication gate + index mutation + invalidation)",
		obs.LatencyBuckets)
	mCheckpointSeconds = obs.NewHistogram("ir_engine_checkpoint_seconds",
		"wall time of one durable checkpoint (snapshot, rewrite, publish)",
		obs.LatencyBuckets)
	mCheckpointPhaseSeconds = obs.NewHistogramVec("ir_engine_checkpoint_phase_seconds",
		"wall time of one durable checkpoint's phases: snapshot (freeze the overlay's delta under the read lock), rewrite (merge it with the served generation's files into the new generation's, unlocked), sync (fsync files and directory, unlocked), publish (manifest, log cut to the tail, tail replay and index swap under the write lock, including the wait for it)",
		"phase", obs.LatencyBuckets)
	mCheckpointLists = obs.NewCounterVec("ir_engine_checkpoint_lists_total",
		"inverted lists written by checkpoint rewrites: copied (no write touched the dimension; its extent is taken from the served list file as encoded) or merged (base postings streamed through the delta)",
		"path")
	mCheckpointRecords = obs.NewCounterVec("ir_engine_checkpoint_records_total",
		"tuple records written by checkpoint rewrites: copied (taken from the served tuple file as encoded) or encoded (the overlay's own versions: inserts, updates, tombstones)",
		"path")
	mCacheEvents = obs.NewCounterVec("ir_engine_cache_events_total",
		"answer-cache outcomes: hit (exact-weight analysis), hit-region (region-certified top-k), miss, bypass (NoCache request), evict",
		"event")
	mShardLinesOffered = obs.NewCounter("ir_shard_lines_offered_total",
		"candidate lines this shard's envelope-path round-2 computations selected their reply from (what an unpruned reply would carry)")
	mShardLinesShipped = obs.NewCounter("ir_shard_lines_shipped_total",
		"candidate lines this shard shipped to a coordinator in round-2 replies: those that reach the imposed result's k-th envelope somewhere in the weight domain")
	_ = obs.NewGaugeFunc("ir_scan_pages_bytes",
		"bytes of candidate-table pages the process keeps: those held by running scans plus, on Linux, where they live outside the Go heap, idle ones not yet handed back to the kernel",
		func() float64 { return float64(topk.PageBytes()) })
)

// Timings is the engine envelope around one query, complementing the
// core's own phase metering: how long validation, the cache probe, the
// worker-pool queue and cache admission took. Scan/region time lives
// in core.Metrics (Phase1 vs Phase2+Phase3); I/O counts in
// Metrics.SeqPages/RandReads. All fields are wall-clock durations.
type Timings struct {
	Validate time.Duration
	Cache    time.Duration
	Queue    time.Duration
	Admit    time.Duration
}

// observeCompute records the per-phase histograms and the stopping
// depth of one full computation.
func observeCompute(phase1, phase2, phase3 time.Duration, sortedAccesses int) {
	mPhaseSeconds.Observe("scan", phase1.Seconds())
	mPhaseSeconds.Observe("evaluate", phase2.Seconds())
	mPhaseSeconds.Observe("pulls", phase3.Seconds())
	mSortedAccesses.Observe(float64(sortedAccesses))
}
