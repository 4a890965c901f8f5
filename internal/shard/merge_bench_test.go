package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/topk"
	"repro/internal/vec"
)

// The benchmark harness's sharded-analyze workload (go run -C bench .
// -workload sharded-analyze -trace 1) reports the merge only as a
// remainder, shard.merge_us = total - the slower shard of each round.
// These benchmarks time it directly: both merges run in microseconds
// against the millisecond rounds, at realistic fan-in (k=10 over 4..16
// shards).

func benchLists(shards, k int, seed int64) [][]topk.Scored {
	rng := rand.New(rand.NewSource(seed))
	lists := make([][]topk.Scored, shards)
	for s := range lists {
		lists[s] = make([]topk.Scored, k)
		score := 1.0
		for i := range lists[s] {
			score -= rng.Float64() / float64(k)
			lists[s][i] = topk.Scored{ID: s*1_000_000 + i, Score: score, Proj: []float64{score, score / 2}}
		}
	}
	return lists
}

func BenchmarkMergeTopK(b *testing.B) {
	for _, shards := range []int{4, 16} {
		b.Run(map[int]string{4: "4shards", 16: "16shards"}[shards], func(b *testing.B) {
			lists := benchLists(shards, 10, 7)
			b.ReportAllocs()
			for b.Loop() {
				mergeTopK(lists, 10)
			}
		})
	}
}

func BenchmarkMergeClassic(b *testing.B) {
	for _, shards := range []int{4, 16} {
		b.Run(map[int]string{4: "4shards", 16: "16shards"}[shards], func(b *testing.B) {
			rng := rand.New(rand.NewSource(7))
			outs := make([]*core.Output, shards)
			for s := range outs {
				regs := make([]core.Regions, 4) // qlen=4, one Regions per query dim
				for j := range regs {
					regs[j] = core.Regions{
						Dim: j, QPos: j,
						Lo: -rng.Float64(), Hi: rng.Float64(),
						Right: []core.Perturbation{{Delta: rng.Float64(), Above: 1, Below: 2}},
						Left:  []core.Perturbation{{Delta: -rng.Float64(), Above: 2, Below: 1}},
					}
				}
				outs[s] = &core.Output{Regions: regs}
			}
			b.ReportAllocs()
			for b.Loop() {
				mergeClassic(outs)
			}
		})
	}
}

// The envelope-path merge is the other side of that remainder, and its
// cost is set by how many lines the shards ship. The two benchmarks
// below pin that curve outside the load harness, on the harness's own
// query shape: ST data, four query dimensions, k = 10, φ = 2, CPT.

// stRound2 sets up a two-shard coordinator over an ST dataset and runs
// round 1 of one φ = 2 query.
func stRound2(b *testing.B) (tuples []vec.Sparse, c *Coordinator, q vec.Query, k int, res []topk.Scored, opts engine.Options) {
	b.Helper()
	ds := dataset.GenerateST(dataset.STConfig{N: 40000, Seed: 15})
	c, err := NewLocal(ds.Tuples, ds.M, 2, engine.Config{}, Config{})
	if err != nil {
		b.Fatal(err)
	}
	q, k = vec.MustQuery([]int{2, 7, 11, 16}, []float64{0.8, 0.5, 0.3, 0.6}), 10
	merged, err := c.TopK(context.Background(), q, k)
	if err != nil {
		b.Fatal(err)
	}
	return ds.Tuples, c, q, k, merged.Result, engine.Options{Options: core.Options{Method: core.MethodCPT, Phi: 2}}
}

// BenchmarkReplayRegions times the coordinator's merge (sort + replay)
// over a reply of the given size: the highest-scoring non-result tuples,
// which is what a shard's candidate view holds. 100 lines is a pruned
// reply; 10 000 is what the two shards of the harness shipped for one
// query before replies were pruned to the relevant lines.
func BenchmarkReplayRegions(b *testing.B) {
	tuples, _, q, k, res, opts := stRound2(b)
	ranked := topk.TopKNaive(tuples, q, k+10000)[k:]
	for _, n := range []int{100, 10000} {
		b.Run(fmt.Sprintf("lines=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				mergeRegions(q, k, res, nil, ranked[:n], opts)
			}
		})
	}
}

// BenchmarkShardReply takes one shard's recorded round-2 reply — the
// body its /shard/analyze handler wrote — through everything the two
// ends of the wire do with it: encode, decode, sort and replay.
func BenchmarkShardReply(b *testing.B) {
	_, c, q, k, res, opts := stRound2(b)
	w := call(server.FromEngine(c.backends[0].(Local).E).Handler(), http.MethodPost, "/shard/analyze",
		mustJSON(b, server.ShardAnalyzeRequest{Dims: q.Dims, Weights: q.Weights, K: k,
			Imposed: res, Phi: opts.Phi, Method: server.MethodName(opts.Method)}))
	if w.Code != http.StatusOK {
		b.Fatalf("/shard/analyze: %d %s", w.Code, w.Body)
	}
	recorded := w.Body.Bytes()
	var reply server.ShardAnalyzeResponse
	if err := json.Unmarshal(recorded, &reply); err != nil {
		b.Fatal(err)
	}

	b.SetBytes(int64(len(recorded)))
	b.ReportAllocs()
	for b.Loop() {
		raw, err := json.Marshal(reply)
		if err != nil {
			b.Fatal(err)
		}
		var got server.ShardAnalyzeResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			b.Fatal(err)
		}
		mergeRegions(q, k, res, nil, got.Lines, opts)
	}
	b.ReportMetric(float64(len(reply.Lines)), "lines")
}
