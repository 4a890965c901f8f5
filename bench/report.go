package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number. Samples is the count behind a
// percentile (0 where it has no meaning).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// workloadResult is one workload's share of a run file.
type workloadResult struct {
	Workload  string            `json:"workload"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"` // non-200 + transport errors + oracle rejections
	Oracle    string            `json:"oracle_first_rejection,omitempty"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

// runFile is bench/out/run-<seed>-<UTC time>.json: one file per run, so
// that runs of one seed accumulate into a run-set instead of overwriting
// each other.
type runFile struct {
	Host      map[string]string `json:"host"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Workloads []workloadResult  `json:"workloads"`
}

func (f runFile) write(outDir string) (string, error) {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(outDir, fmt.Sprintf("run-%d-%s.json", f.Seed, time.Now().UTC().Format("20060102T150405.000")))
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// hostFacts stamps what a reader needs to judge whether two run files
// are comparable.
func hostFacts(root string) map[string]string {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "describe", "--always", "--dirty").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
	}
}

// summarize turns a workload's run into the end-to-end metrics — rates
// and latencies as the median over the 1 s slices of all deployments,
// set-up time and peak memory as the median over the deployments — and
// the per-layer metrics that come from outside the processes
// (client-side diagnostics, /stats, /metrics and /proc deltas).
func summarize(res *windowResult) workloadResult {
	out := workloadResult{
		Workload: res.sp.name,
		EndToEnd: map[string]metric{},
		PerLayer: map[string]metric{},
	}
	var lat [numOpClasses][]float64
	var all, lag, setups, hwm []float64
	var sl sliceSeries
	var tupleBytes int64
	for _, pt := range res.parts {
		setups = append(setups, pt.setup)
		for _, l := range pt.logs {
			out.Attempted += l.attempted
			out.Failed += l.failed
			tupleBytes += l.tupleBytes
			lag = append(lag, l.lagMicros...)
			for _, op := range l.ops {
				lat[op.class] = append(lat[op.class], op.ms)
				all = append(all, op.ms)
			}
		}
		sl.cut(pt.ticks, pt.logs)
		var peak int64
		for _, u := range pt.after.usage {
			peak += u.hwmBytes
		}
		hwm = append(hwm, float64(peak)/(1<<20))
	}
	out.Attempted += res.oracle.checked
	out.Failed += res.oracle.rejected
	out.Oracle = res.oracle.first

	e := out.EndToEnd
	put(e, "setup_s", median(setups), len(setups))
	put(e, "peak_rss_mb", median(hwm), len(hwm))

	// The timing metrics: what a user of the system sees first, but on a
	// shared host too noisy for the bounds a gate can carry (README.md), so
	// they are reported as diagnostics.
	p := out.PerLayer
	put(p, "bench.ops_per_s", median(sl.opsPerS), len(all))
	put(p, "bench.op_p50_ms", median(sl.p50), len(all))
	put(p, "bench.analyze_p50_ms", median(sl.analyzeP50), len(lat[opAnalyze]))
	put(p, "bench.cpu_ms_per_op", median(sl.cpuMsPerOp), len(sl.cpuMsPerOp))
	// Over every request of the run: the tails and the per-class
	// percentiles (0 with 0 samples where the mix has no such request).
	put(p, "bench.op_p95_ms", percentile(all, 0.95), len(all))
	put(p, "bench.op_p99_ms", percentile(all, 0.99), len(all))
	for c := opClass(0); c < numOpClasses; c++ {
		for _, q := range []struct {
			tag string
			p   float64
		}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}} {
			if c == opAnalyze && q.tag == "p50" {
				continue // reported above, per slice
			}
			put(p, fmt.Sprintf("bench.%s_%s_ms", c, q.tag), percentile(lat[c], q.p), len(lat[c]))
		}
	}
	put(p, "bench.loader_lag_us", median(lag), len(lag))
	res.statsMetrics(p, tupleBytes)
	return out
}

// sliceSeries holds one value per full slice of the window, over all its
// parts, for each end-to-end rate and latency.
type sliceSeries struct {
	opsPerS, cpuMsPerOp, p50, analyzeP50 []float64
}

// cut assigns every request of one part to the slice its reply arrived
// in and appends the per-slice values. Requests that complete after the
// last tick (those in flight at the deadline) fall in no slice.
func (sl *sliceSeries) cut(ticks []tick, logs []*clientLog) {
	n := len(ticks) - 1
	if n < 1 {
		return
	}
	all := make([][]float64, n)
	analyze := make([][]float64, n)
	for _, l := range logs {
		i := 0
		for _, op := range l.ops { // in completion order
			for i < n && op.end.After(ticks[i+1].at) {
				i++
			}
			if i == n {
				break
			}
			all[i] = append(all[i], op.ms)
			if op.class == opAnalyze {
				analyze[i] = append(analyze[i], op.ms)
			}
		}
	}
	for i := 0; i < n; i++ {
		ops := float64(len(all[i]))
		sl.opsPerS = append(sl.opsPerS, ops/ticks[i+1].at.Sub(ticks[i].at).Seconds())
		if ops == 0 {
			continue // a slice one request outlasted
		}
		sl.cpuMsPerOp = append(sl.cpuMsPerOp, 1e3*(ticks[i+1].cpu-ticks[i].cpu)/ops)
		sl.p50 = append(sl.p50, median(all[i]))
		if len(analyze[i]) > 0 {
			sl.analyzeP50 = append(sl.analyzeP50, median(analyze[i]))
		}
	}
}

// endToEndUnits names every end-to-end metric and its unit; every
// workload reports all of them and none is ever 0.
var endToEndUnits = map[string]string{
	"setup_s":     "s",
	"peak_rss_mb": "MB",
}

// perLayerUnits names every per-layer metric and its unit. A workload
// that never enters a layer reports 0 for it: the layer costs it nothing.
var perLayerUnits = map[string]string{
	"storage.seq_us": "us", "storage.rand_us": "us", "storage.seq_pages": "count",
	"storage.rand_reads": "count", "storage.bytes_read": "B", "storage.pool_bypass": "count",
	"lists.cursor_us": "us", "lists.overlay_delta_postings": "count", "lists.overlay_bytes": "B",
	"topk.run_us": "us", "topk.sorted_accesses": "count", "topk.candidates": "count",
	"core.compute_us": "us", "core.phase1_us": "us", "core.phase2_us": "us", "core.phase3_us": "us",
	"core.evaluated": "count", "core.mem_bytes": "B",
	"core.scan_us": "us", "core.prune_us": "us", "core.thres_us": "us",
	"engine.miss_us": "us", "engine.exact_hit_us": "us", "engine.region_hit_us": "us", "engine.apply_us": "us",
	"engine.exact_hit_share": "ratio", "engine.region_hit_share": "ratio", "engine.miss_share": "ratio",
	"engine.cache_checked_per_update": "count", "engine.cache_evicted_per_update": "count", "engine.cache_evictions": "count",
	"wal.append_us": "us", "wal.fsync_us": "us", "wal.bytes_per_op": "B", "wal.syncs_per_update": "count",
	"wal.checkpoints": "count", "wal.checkpoint_ms": "ms", "wal.write_amp": "ratio",
	"server.analyze_us": "us", "server.topk_us": "us", "server.update_us": "us",
	"server.analyze_resp_bytes": "B", "server.topk_resp_bytes": "B", "server.loopback_us": "us",
	"client.hop_us": "us", "client.retries": "count",
	"shard.round1_us": "us", "shard.round2_us": "us", "shard.merge_us": "us", "shard.straggler_ratio": "ratio",
	"shard.http_us": "us", "shard.imposed_bytes": "B", "shard.rpcs_per_query": "count",
	"shard.retries": "count", "shard.partial_total": "count",
	"bench.ops_per_s": "1/s", "bench.op_p50_ms": "ms", "bench.analyze_p50_ms": "ms", "bench.cpu_ms_per_op": "ms",
	"bench.op_p95_ms": "ms", "bench.op_p99_ms": "ms", "bench.analyze_p95_ms": "ms",
	"bench.analyze_p99_ms": "ms", "bench.topk_p50_ms": "ms", "bench.topk_p95_ms": "ms", "bench.topk_p99_ms": "ms",
	"bench.update_p50_ms": "ms", "bench.update_p95_ms": "ms", "bench.update_p99_ms": "ms",
	"bench.ladder_residual_us": "us", "bench.loader_lag_us": "us",
}

// put stores one metric under its registered unit; NaN (no samples)
// becomes 0.
func put(m map[string]metric, name string, v float64, samples int) {
	unit, ok := endToEndUnits[name]
	if !ok {
		unit = perLayerUnits[name]
	}
	m[name] = metric{Value: orZero(v), Unit: unit, Samples: samples}
}

func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// statsMetrics derives the per-layer metrics that are deltas of the
// servers' own counters across the window.
func (res *windowResult) statsMetrics(p map[string]metric, tupleBytes int64) {
	var d statsDoc
	var written int64
	prom := map[string]float64{}
	for _, pt := range res.parts {
		for i := range pt.after.usage {
			written += pt.after.usage[i].writeBytes - pt.before.usage[i].writeBytes
		}
		for family, v := range pt.after.prom {
			prom[family] += v - pt.before.prom[family]
		}
		for i := range pt.after.stats {
			a, b := pt.after.stats[i], pt.before.stats[i]
			d.Cache.Hits += a.Cache.Hits - b.Cache.Hits
			d.Cache.RegionHits += a.Cache.RegionHits - b.Cache.RegionHits
			d.Cache.Misses += a.Cache.Misses - b.Cache.Misses
			d.Cache.Evictions += a.Cache.Evictions - b.Cache.Evictions
			d.Mutations.Batches += a.Mutations.Batches - b.Mutations.Batches
			d.Mutations.CacheChecked += a.Mutations.CacheChecked - b.Mutations.CacheChecked
			d.Mutations.CacheEvicted += a.Mutations.CacheEvicted - b.Mutations.CacheEvicted
			d.WAL.Appends += a.WAL.Appends - b.WAL.Appends
			d.WAL.Syncs += a.WAL.Syncs - b.WAL.Syncs
			d.WAL.Checkpoints += a.WAL.Checkpoints - b.WAL.Checkpoints
		}
	}
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	lookups := d.Cache.Hits + d.Cache.RegionHits + d.Cache.Misses
	put(p, "engine.exact_hit_share", ratio(d.Cache.Hits, lookups), 0)
	put(p, "engine.region_hit_share", ratio(d.Cache.RegionHits, lookups), 0)
	put(p, "engine.miss_share", ratio(d.Cache.Misses, lookups), 0)
	put(p, "engine.cache_evictions", float64(d.Cache.Evictions), 0)
	put(p, "engine.cache_checked_per_update", ratio(d.Mutations.CacheChecked, d.Mutations.Batches), 0)
	put(p, "engine.cache_evicted_per_update", ratio(d.Mutations.CacheEvicted, d.Mutations.Batches), 0)
	put(p, "wal.syncs_per_update", ratio(d.WAL.Syncs, d.WAL.Appends), 0)
	put(p, "wal.checkpoints", float64(d.WAL.Checkpoints), 0)
	put(p, "wal.write_amp", ratio(written, tupleBytes), 0)
	for metricName, family := range map[string]string{
		"client.retries":      "ir_client_retries_total",
		"shard.retries":       "ir_shard_retries_total",
		"shard.partial_total": "ir_shard_partial_total",
	} {
		put(p, metricName, prom[family], 0)
	}
}

// print writes every metric the run measured by name, unit and sample
// count; an untraced run has the per-layer metrics that need no ladder.
func (w workloadResult) print(out io.Writer) {
	fmt.Fprintf(out, "== %s: attempted %d, failed %d\n", w.Workload, w.Attempted, w.Failed)
	if w.Oracle != "" {
		fmt.Fprintf(out, "   first rejection: %s\n", w.Oracle)
	}
	dump := func(m map[string]metric) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			v := m[n]
			line := fmt.Sprintf("   %-34s %14.6g %s", n, v.Value, v.Unit)
			if v.Samples > 0 {
				line += fmt.Sprintf("  (n=%d)", v.Samples)
			}
			fmt.Fprintln(out, line)
		}
	}
	dump(w.EndToEnd)
	dump(w.PerLayer)
}

// contract renders the driver's result object: every end-to-end metric
// untraced, every per-layer metric traced.
func (w workloadResult) contract(traced bool) map[string]any {
	src := w.EndToEnd
	if traced {
		src = w.PerLayer
	}
	ms := map[string]map[string]any{}
	for n, v := range src {
		ms[n] = map[string]any{"value": v.Value, "unit": v.Unit}
	}
	return map[string]any{
		"correct":   w.Failed == 0,
		"attempted": w.Attempted,
		"failed":    w.Failed,
		"metrics":   ms,
	}
}
