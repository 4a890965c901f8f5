package shard

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/topk"
	"repro/internal/vec"
)

var shardCounts = []int{1, 2, 4, 8}

func singleNode(tuples []vec.Sparse, m int) *engine.Engine {
	own := append([]vec.Sparse(nil), tuples...)
	return engine.New(lists.NewMemIndex(own, m), engine.Config{CacheEntries: -1})
}

func localCoord(t *testing.T, tuples []vec.Sparse, m, shards int, ccfg Config) *Coordinator {
	t.Helper()
	coord, err := NewLocal(tuples, m, shards, engine.Config{CacheEntries: -1}, ccfg)
	if err != nil {
		t.Fatalf("NewLocal(%d shards): %v", shards, err)
	}
	return coord
}

// diffScored requires bit-identical result lists: ids, scores and
// subspace projections. Metrics are deliberately NOT compared anywhere
// in this file — shards work conservatively near their boundaries, and
// the merge contract covers answers, not effort.
func diffScored(t *testing.T, tag string, got, want []topk.Scored) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", tag, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Score != w.Score {
			t.Fatalf("%s: result[%d] = (id %d, score %v), want (id %d, score %v)",
				tag, i, g.ID, g.Score, w.ID, w.Score)
		}
		if len(g.Proj) != len(w.Proj) {
			t.Fatalf("%s: result[%d] proj len %d, want %d", tag, i, len(g.Proj), len(w.Proj))
		}
		for j := range w.Proj {
			if g.Proj[j] != w.Proj[j] {
				t.Fatalf("%s: result[%d] proj[%d] = %v, want %v", tag, i, j, g.Proj[j], w.Proj[j])
			}
		}
	}
}

func diffPerts(t *testing.T, tag string, got, want []core.Perturbation) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d perturbations, want %d (got %+v want %+v)", tag, len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Delta != w.Delta || g.Above != w.Above || g.Below != w.Below || g.Entry != w.Entry {
			t.Fatalf("%s: perturbation[%d] = %+v, want %+v", tag, i, g, w)
		}
	}
}

// diffOutputs requires the merged answer bit-identical to the
// single-node one: result list, then per-dimension region bounds and
// full perturbation schedules.
func diffOutputs(t *testing.T, tag string, got, want *core.Output) {
	t.Helper()
	diffScored(t, tag+"/result", got.Result, want.Result)
	if len(got.Regions) != len(want.Regions) {
		t.Fatalf("%s: %d regions, want %d", tag, len(got.Regions), len(want.Regions))
	}
	for jx := range want.Regions {
		g, w := got.Regions[jx], want.Regions[jx]
		if g.Dim != w.Dim || g.QPos != w.QPos {
			t.Fatalf("%s: regions[%d] dim/qpos = %d/%d, want %d/%d", tag, jx, g.Dim, g.QPos, w.Dim, w.QPos)
		}
		if g.Lo != w.Lo || g.Hi != w.Hi {
			t.Fatalf("%s: regions[%d] = [%v, %v], want [%v, %v]", tag, jx, g.Lo, g.Hi, w.Lo, w.Hi)
		}
		diffPerts(t, tag+"/right", g.Right, w.Right)
		diffPerts(t, tag+"/left", g.Left, w.Left)
	}
}

// randTuple draws an insert/update payload in general position: non-zero
// on at least one query dimension, like the fixture generator's tuples.
func randTuple(rng *rand.Rand, q vec.Query, m int) vec.Sparse {
	var entries []vec.Entry
	nz := 1 + rng.Intn(q.Len())
	for _, p := range rng.Perm(q.Len())[:nz] {
		entries = append(entries, vec.Entry{Dim: q.Dims[p], Val: 0.05 + 0.95*rng.Float64()})
	}
	for d := 0; d < m; d++ {
		if q.Pos(d) < 0 && rng.Float64() < 0.3 {
			entries = append(entries, vec.Entry{Dim: d, Val: rng.Float64()})
		}
	}
	tu, err := vec.NewSparse(entries)
	if err != nil {
		panic(err)
	}
	return tu
}

// randOps draws a mutation batch over the current id space [0, n):
// inserts, updates and deletes mixed, some targeting ids already dead.
func randOps(rng *rand.Rand, q vec.Query, m, n, count int) []engine.Op {
	ops := make([]engine.Op, 0, count)
	for i := 0; i < count; i++ {
		switch rng.Intn(3) {
		case 0:
			ops = append(ops, engine.Op{Kind: engine.OpInsert, Tuple: randTuple(rng, q, m)})
		case 1:
			ops = append(ops, engine.Op{Kind: engine.OpUpdate, ID: rng.Intn(n), Tuple: randTuple(rng, q, m)})
		default:
			ops = append(ops, engine.Op{Kind: engine.OpDelete, ID: rng.Intn(n)})
		}
	}
	return ops
}

// optsVariants covers both merge paths (classic min/max and envelope
// replay) and every dispatch special-case: plain φ=0 per method, φ>0,
// iterative φ>0 and composition-only.
func optsVariants(rng *rand.Rand) []engine.Options {
	return []engine.Options{
		{Options: core.Options{Method: core.MethodScan}},
		{Options: core.Options{Method: core.MethodThres}},
		{Options: core.Options{Method: core.MethodPrune}},
		{Options: core.Options{Method: core.MethodCPT}},
		{Options: core.Options{Method: core.MethodScan, Phi: 1 + rng.Intn(2)}},
		{Options: core.Options{Method: core.MethodCPT, Phi: 2}},
		{Options: core.Options{Method: core.MethodScan, Phi: 1 + rng.Intn(2), Iterative: true}},
		{Options: core.Options{Method: core.MethodScan, CompositionOnly: true, Phi: 1}},
	}
}

// TestShardedBitIdentical is the tentpole's property suite: across
// randomized datasets, weights, k and φ, and across shard counts
// 1/2/4/8, the coordinator's /topk and /analyze answers are
// bit-identical to a single-node engine over the union — scores,
// result ids and order, region bounds and perturbation schedules —
// including after Engine.Apply mutation batches routed through the
// coordinator to the owning shards.
func TestShardedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4201))
	ctx := context.Background()
	trials := 6
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		n := 70 + rng.Intn(70)
		if trial == 0 {
			// Under-full shards: fewer tuples than shards*k, so every
			// shard returns short lists and |R| can be < k post-delete.
			n = 10
		}
		cs := fixture.RandCase(rng, n, 6, 2+rng.Intn(2), 2+rng.Intn(4))
		variants := optsVariants(rng)
		for _, shards := range shardCounts {
			single := singleNode(cs.Tuples, cs.M)
			coord := localCoord(t, cs.Tuples, cs.M, shards, Config{})

			check := func(stage string) {
				want, _, err := single.TopKMetered(ctx, cs.Q, cs.K)
				if err != nil {
					t.Fatalf("trial %d %s: single topk: %v", trial, stage, err)
				}
				got, err := coord.TopK(ctx, cs.Q, cs.K)
				if err != nil {
					t.Fatalf("trial %d %s: sharded topk: %v", trial, stage, err)
				}
				diffScored(t, stage+"/topk", got, want)

				for oi, opts := range variants {
					wa, err := single.Analyze(ctx, cs.Q, cs.K, opts)
					if err != nil {
						t.Fatalf("trial %d %s opts %d: single analyze: %v", trial, stage, oi, err)
					}
					ga, err := coord.Analyze(ctx, cs.Q, cs.K, opts)
					if err != nil {
						t.Fatalf("trial %d %s opts %d: sharded analyze: %v", trial, stage, oi, err)
					}
					diffOutputs(t, stage+"/analyze", ga.Output, wa.Output)
				}
			}

			check("pre-mutation")

			// Route one mutation batch through both sides and re-check.
			// Per-op outcomes must agree in minted ids and success; error
			// text may differ (shards report local context).
			ops := randOps(rng, cs.Q, cs.M, len(cs.Tuples), 8)
			wr, err := single.Apply(ops)
			if err != nil {
				t.Fatalf("trial %d: single apply: %v", trial, err)
			}
			gr, err := coord.Apply(ctx, ops)
			if err != nil {
				t.Fatalf("trial %d: sharded apply: %v", trial, err)
			}
			if len(gr.Results) != len(wr.Results) || gr.Applied != wr.Applied {
				t.Fatalf("trial %d: apply applied=%d/%d results, want %d/%d",
					trial, gr.Applied, len(gr.Results), wr.Applied, len(wr.Results))
			}
			for i := range wr.Results {
				w, g := wr.Results[i], gr.Results[i]
				if (w.Err == nil) != (g.Err == nil) {
					t.Fatalf("trial %d: op %d error mismatch: single %v, sharded %v", trial, i, w.Err, g.Err)
				}
				if w.Err == nil && w.ID != g.ID {
					t.Fatalf("trial %d: op %d id %d, want %d", trial, i, g.ID, w.ID)
				}
			}

			check("post-mutation")

			// Exact ties across shards: every tuple twice, the copy in the
			// other half of the id space, so equal scores meet in the
			// coordinator's merge and only the id tie-break of topk.ByRank
			// orders them as one node does. Ranked results only: regions
			// under exact ties are ROADMAP item 2.
			twice := append(slices.Clone(cs.Tuples), cs.Tuples...)
			want, _, err := singleNode(twice, cs.M).TopKMetered(ctx, cs.Q, 2*cs.K)
			if err != nil {
				t.Fatalf("trial %d ties: single topk: %v", trial, err)
			}
			got, err := localCoord(t, twice, cs.M, shards, Config{}).TopK(ctx, cs.Q, 2*cs.K)
			if err != nil {
				t.Fatalf("trial %d ties: sharded topk: %v", trial, err)
			}
			diffScored(t, "ties/topk", got, want)
		}
	}
}

// TestIntersectedRegionIsCertificate is the footnote-1 property: the
// cross-polytope spanned by the merged per-dimension bounds is a true
// certificate. Any deviation vector the certifier accepts must leave
// the merged top-k unchanged (no false containment claims), and points
// scaled past the polytope boundary must be rejected.
func TestIntersectedRegionIsCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(4202))
	ctx := context.Background()
	trials := 5
	if testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		cs := fixture.RandCase(rng, 60+rng.Intn(60), 6, 2+rng.Intn(2), 2+rng.Intn(3))
		coord := localCoord(t, cs.Tuples, cs.M, 1+rng.Intn(4), Config{})
		an, err := coord.Analyze(ctx, cs.Q, cs.K, engine.Options{})
		if err != nil {
			t.Fatalf("trial %d: analyze: %v", trial, err)
		}
		qlen := cs.Q.Len()
		// Anchored at 0, the polytope's points are the deviations themselves.
		poly := core.PolytopeOf(make([]float64, qlen), an.Regions)
		lo, hi := poly.Lo, poly.Hi
		baseIDs := an.RankedIDs()

		checkAt := func(devs []float64, mustBeInside, mustBeOutside bool) {
			inside := poly.Contains(devs)
			if mustBeInside && !inside {
				t.Fatalf("trial %d: certifier rejected an interior point %v of lo=%v hi=%v", trial, devs, lo, hi)
			}
			if mustBeOutside && inside {
				t.Fatalf("trial %d: certifier claimed containment outside the polytope: %v of lo=%v hi=%v", trial, devs, lo, hi)
			}
			if !inside {
				return
			}
			w := append([]float64(nil), cs.Q.Weights...)
			for j := range w {
				w[j] += devs[j]
			}
			perturbed := vec.Query{Dims: cs.Q.Dims, Weights: w}
			naive := topk.TopKNaive(cs.Tuples, perturbed, cs.K)
			for i, sc := range naive {
				if i >= len(baseIDs) || sc.ID != baseIDs[i] {
					t.Fatalf("trial %d: certified deviation %v changed the result: got %v at rank %d, base ids %v",
						trial, devs, sc.ID, i, baseIDs)
				}
			}
		}

		for s := 0; s < 40; s++ {
			// Random points in a box around the polytope: accepted ones
			// must preserve the result, whatever side they land on.
			devs := make([]float64, qlen)
			for j := range devs {
				devs[j] = (lo[j] + rng.Float64()*(hi[j]-lo[j])) * 1.6
			}
			checkAt(devs, false, false)

			// A point strictly inside the polytope: coefficients over the
			// vertex directions summing below 1 must be certified and safe.
			frac := make([]float64, qlen)
			sum := 0.0
			for j := range frac {
				frac[j] = rng.Float64()
				sum += frac[j]
			}
			inside := make([]float64, qlen)
			outside := make([]float64, qlen)
			for j := range inside {
				c := 0.9 * frac[j] / sum
				ext := hi[j]
				if rng.Intn(2) == 0 {
					ext = lo[j]
				}
				inside[j] = c * ext
				outside[j] = c * ext / 0.9 * 1.3
			}
			checkAt(inside, true, false)
			checkAt(outside, false, true)
		}
	}
}

// TestMapOwner pins the id-range routing, including the open-ended
// last shard that owns freshly minted insert ids.
func TestMapOwner(t *testing.T) {
	m, err := NewMap([]int{0, 10, 10, 25})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ gid, want int }{
		{0, 0}, {9, 0}, {10, 2}, {24, 2}, {25, 3}, {1000, 3},
	}
	for _, c := range cases {
		if got := m.Owner(c.gid); got != c.want {
			t.Fatalf("Owner(%d) = %d, want %d", c.gid, got, c.want)
		}
	}
	if _, err := NewMap([]int{1, 5}); err == nil {
		t.Fatal("NewMap accepted bases not starting at 0")
	}
	if _, err := NewMap([]int{0, 5, 3}); err == nil {
		t.Fatal("NewMap accepted descending bases")
	}
}
