// Coordinator fan-out observability. Counters are package-level and
// registered once at init (obsreg-enforced), process-wide across every
// coordinator in the process.
package shard

import "repro/internal/obs"

var (
	mFanout = obs.NewCounterVec("ir_shard_fanout_total",
		"shard RPCs the coordinator fanned out, by op (topk, analyze, apply)", "op")
	mFanoutErrors = obs.NewCounterVec("ir_shard_fanout_errors_total",
		"shard RPCs that failed after the group client's retries, by op; a shard cancelled because a sibling failed first is not counted", "op")
)
