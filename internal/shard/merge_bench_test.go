package shard

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/topk"
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
