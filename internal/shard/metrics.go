// Coordinator fan-out observability. Counters are package-level and
// registered once at init (obsreg-enforced), process-wide across every
// coordinator in the process.
package shard

import "repro/internal/obs"

var (
	mFanout = obs.NewCounterVec("ir_shard_fanout_total",
		"shard RPCs the coordinator fanned out, by op (topk, analyze, apply)", "op")
	mFanoutErrors = obs.NewCounterVec("ir_shard_fanout_errors_total",
		"shard RPCs that failed after exhausting their retry budget, by op; a shard cancelled because a sibling failed first is not counted", "op")
	mRetries = obs.NewCounter("ir_shard_retries_total",
		"shard RPC attempts relaunched after a per-attempt timeout or a transient error")
	mStaleDrops = obs.NewCounter("ir_shard_stale_drops_total",
		"late answers from superseded shard RPC attempts discarded by the attempt-generation guard instead of being merged a second time")
)
