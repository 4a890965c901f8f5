package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/lists"
	"repro/internal/topk"
	"repro/internal/vec"
)

// shardLines is one shard's round 2 as the engine runs it: the imposed
// computation over the shard's slice of the tuples, then the reply. all
// is the unpruned reference — every line of the candidate view, what a
// reply carried before relevance pruning — and shipped is the reply.
// Both are taken before the scan is released, so under scratch poisoning
// a reply that still aliases the run turns into NaNs.
func shardLines(t *testing.T, part []vec.Sparse, m, base int, q vec.Query, k int, imposed []topk.Scored, opts Options) (all, shipped []topk.Scored) {
	t.Helper()
	ta := topk.New(lists.NewMemIndex(part, m), q, k, topk.BestList)
	defer ta.Release()
	runner := WithImposed(ta, base, imposed)
	if _, err := ComputeView(context.Background(), runner, opts); err != nil {
		t.Fatal(err)
	}
	shipped, offered := runner.(*imposedRunner).ContributedLines()
	view, _ := runner.Ranking()
	all = runner.(*imposedRunner).lines(view)
	if offered != len(all) {
		t.Fatalf("offered %d lines, candidate view has %d", offered, len(all))
	}
	return all, shipped
}

// replay merges per-shard line sets the way the coordinator does.
func replay(q vec.Query, k int, res []topk.Scored, opts Options, perShard ...[]topk.Scored) []Regions {
	union := slices.Concat(perShard...)
	slices.SortFunc(union, func(a, b topk.Scored) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return a.ID - b.ID
	})
	return ReplayRegions(q, k, res, union, opts)
}

// singleNode is the reference answer over the union of the shards.
func singleNode(t *testing.T, tuples []vec.Sparse, m int, q vec.Query, k int, opts Options) *Output {
	t.Helper()
	ta := topk.New(lists.NewMemIndex(tuples, m), q, k, topk.BestList)
	defer ta.Release()
	out, err := Compute(context.Background(), ta, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// randShardedCase draws a small instance of 12 to maxN tuples, built to
// stress the relevance filter's comparisons rather than its throughput:
// weights at both edges of (0, 1], a partition with an under-full shard,
// and — when general is false — coordinates and weights from a coarse
// grid (exact score ties, concurrent lines; the tenths grid adds
// rounding to the ties) or duplicated tuples.
func randShardedCase(rng *rand.Rand, maxN int) (tuples []vec.Sparse, m int, q vec.Query, k int, bases []int, general bool) {
	m = 4
	qlen := 2 + rng.Intn(2)
	grids := [][]float64{
		nil, // continuous
		{0.25, 0.5, 0.75, 1},
		{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1},
	}
	grid := grids[rng.Intn(len(grids))]
	duplicates := rng.Intn(2) == 0
	general = grid == nil && !duplicates
	draw := func() float64 {
		if grid == nil {
			return 0.05 + 0.95*rng.Float64()
		}
		return grid[rng.Intn(len(grid))]
	}
	weights := make([]float64, qlen)
	for i := range weights {
		switch rng.Intn(6) {
		case 0:
			weights[i] = 1 // empty upward domain
		case 1:
			weights[i] = 1e-3 // all but empty downward domain
		default:
			weights[i] = draw()
		}
	}
	q = vec.MustQuery(rng.Perm(m)[:qlen], weights)

	n := 12 + rng.Intn(maxN-11)
	tuples = make([]vec.Sparse, n)
	for i := range tuples {
		if duplicates && i > 0 && rng.Intn(6) == 0 {
			tuples[i] = tuples[rng.Intn(i)] // same line, larger id
			continue
		}
		// Non-zero on at least one query dimension, as fixture.RandCase.
		var entries []vec.Entry
		for _, p := range rng.Perm(qlen)[:1+rng.Intn(qlen)] {
			entries = append(entries, vec.Entry{Dim: q.Dims[p], Val: draw()})
		}
		for d := 0; d < m; d++ {
			if q.Pos(d) < 0 && rng.Intn(3) == 0 {
				entries = append(entries, vec.Entry{Dim: d, Val: draw()})
			}
		}
		tu, err := vec.NewSparse(entries)
		if err != nil {
			panic(err)
		}
		tuples[i] = tu
	}

	k = 1 + rng.Intn(5)
	shards := 2 + rng.Intn(3)
	cuts := rng.Perm(n - 1)[:shards-1]
	if rng.Intn(2) == 0 {
		cuts[0] = rng.Intn(k) // first shard holds 1..k tuples
	}
	bases = []int{0}
	for _, c := range cuts {
		bases = append(bases, c+1)
	}
	slices.Sort(bases)
	return tuples, m, q, k, slices.Compact(bases), general
}

// TestRelevancePruningExact: every shard ships exactly the lines the
// per-break filter keeps, ties included, and the pruned round-2 replies
// replay to exactly the regions the unpruned ones do — perturbation for
// perturbation, bit for bit — on every instance; in general position
// both equal the single node's. Under exact ties the single node's own answer depends
// on the order lines reach its boundaries (which tied crossing closes
// the horizon), so there the unpruned replay is the only reference, as
// it was before pruning; the log line counts those instances.
func TestRelevancePruningExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1501))
	trials := 600
	if testing.Short() {
		trials = 150
	}
	var offered, sent, tied, tiedOff, tiedSent, tiedRef int
	for trial := 0; trial < trials; trial++ {
		tuples, m, q, k, bases, general := randShardedCase(rng, 300)
		opts := Options{Method: Methods[rng.Intn(len(Methods))], Phi: 1 + rng.Intn(3), CompositionOnly: rng.Intn(5) == 0}
		want := singleNode(t, tuples, m, q, k, opts)

		tag := fmt.Sprintf("trial %d (n=%d k=%d bases=%v q=%v %+v)", trial, len(tuples), k, bases, q.Weights, opts)
		var all, shipped [][]topk.Scored
		for i, lo := range bases {
			hi := len(tuples)
			if i+1 < len(bases) {
				hi = bases[i+1]
			}
			a, s := shardLines(t, tuples[lo:hi], m, lo, q, k, want.Result, opts)
			all, shipped = append(all, a), append(shipped, s)
			offered, sent = offered+len(a), sent+len(s)
			got, ref := idsOf(s), idsOf(perBreakLines(q, k, want.Result, a))
			if !slices.Equal(got, ref) {
				t.Errorf("%s: shard at %d shipped %v, the per-break filter %v", tag, lo, got, ref)
			}
			if !general {
				tiedSent, tiedRef = tiedSent+len(got), tiedRef+len(ref)
			}
		}
		unpruned := replay(q, k, want.Result, opts, all...)
		if pruned := replay(q, k, want.Result, opts, shipped...); !reflect.DeepEqual(pruned, unpruned) {
			t.Errorf("%s: pruned replay differs from the unpruned one:\n got %+v\nwant %+v", tag, pruned, unpruned)
		}
		switch same := reflect.DeepEqual(unpruned, want.Regions); {
		case general && !same:
			t.Errorf("%s: replay differs from the single node:\n got %+v\nwant %+v", tag, unpruned, want.Regions)
		case !general:
			tied++
			if !same {
				tiedOff++
			}
		}
	}
	if sent*2 > offered {
		t.Errorf("pruning shipped %d of %d offered lines", sent, offered)
	}
	t.Logf("shipped %d of %d offered lines; %d of %d tied instances already replay differently from the single node unpruned",
		sent, offered, tiedOff, tied)
	t.Logf("tied instances: shipped %d lines, the per-break filter %d", tiedSent, tiedRef)
}

// perBreakLines is ContributedLines' filter as it was written before
// Polytope.Reaches, kept as the reference TestRelevancePruningExact holds
// the closed form to: per side of each dimension E_R is swept into a
// piecewise-linear function, and a line is kept iff it comes within 1e-9
// of E_R at one of its breaks.
func perBreakLines(q vec.Query, k int, res, offered []topk.Scored) []topk.Scored {
	if len(res) < k {
		return nil
	}
	type side struct {
		jx   int
		sign float64
		env  geom.PiecewiseLinear
	}
	var sides []side
	for jx, qj := range q.Weights {
		sides = append(sides,
			side{jx, 1, geom.KthEnvelope(resultLines(res, jx, false), len(res), 0, 1-qj)},
			side{jx, -1, geom.KthEnvelope(resultLines(res, jx, true), len(res), 0, qj)})
	}
	var kept []topk.Scored
	for _, sc := range offered {
		if slices.ContainsFunc(sides, func(sd side) bool {
			coord := sd.sign * sc.Proj[sd.jx]
			return slices.ContainsFunc(sd.env.Breaks, func(x float64) bool {
				return sc.Score+coord*x > sd.env.Eval(x)-1e-9
			})
		}) {
			kept = append(kept, sc)
		}
	}
	return kept
}

// locallyAccepted is the WRONG filter, kept here as the thing the trap
// test refutes: the lines a shard's own boundaries accept when offered
// in candidate order.
func locallyAccepted(q vec.Query, res, offered []topk.Scored, opts Options) []topk.Scored {
	keep := map[int]bool{}
	for jx, qj := range q.Weights {
		right := newBoundary(res, jx, opts.Phi, 1-qj, false, opts.CompositionOnly)
		left := newBoundary(res, jx, opts.Phi, qj, true, opts.CompositionOnly)
		for _, sc := range offered {
			if right.consider(sc.ID, sc.Score, sc.Proj[jx]) {
				keep[sc.ID] = true
			}
			if left.consider(sc.ID, sc.Score, -sc.Proj[jx]) {
				keep[sc.ID] = true
			}
		}
	}
	var out []topk.Scored
	for _, sc := range offered {
		if keep[sc.ID] {
			out = append(out, sc)
		}
	}
	return out
}

// TestShardLocalAcceptanceTrap is the hand-built counter-example to
// pruning a reply down to what the shard's own boundaries accepted. It
// fails if ContributedLines' filter is swapped for that one — tested
// against anything but the imposed result alone over the whole domain.
//
// q = (0.2, 0.8), k = 1, φ = 1; upward deviations of dimension 0, where
// a tuple (t0, t1) is the line y = 0.2·t0 + 0.8·t1 + x·t0 on [0, 0.8]:
//
//	shard 0   a = (0.4, 0.85)    0.76 + 0.40x
//	          b = (0.48, 0.805)  0.74 + 0.48x
//	          c = (1, 0.375)     0.50 + 1.00x
//	shard 1   r = (0, 1)         0.80            the global top-1
//	          d = (0.5, 0.85)    0.78 + 0.50x
//
// Over the union d passes r at x = 0.04 and stays on top until c passes
// it at 0.56; a and b never leave d's shadow. Alone on shard 0, a passes
// r at 0.1 and b passes a at 0.25 — the second event, so shard 0's
// horizon closes at 0.25, and c, which first tops shard 0's envelope at
// 0.46, is rejected there. The union's second perturbation is c's.
func TestShardLocalAcceptanceTrap(t *testing.T) {
	tuples := []vec.Sparse{
		vec.FromDense([]float64{0.4, 0.85}),   // a
		vec.FromDense([]float64{0.48, 0.805}), // b
		vec.FromDense([]float64{1, 0.375}),    // c
		vec.FromDense([]float64{0, 1}),        // r
		vec.FromDense([]float64{0.5, 0.85}),   // d
	}
	const m, k, cut, cID, dID, rID = 2, 1, 3, 2, 4, 3
	q := vec.MustQuery([]int{0, 1}, []float64{0.2, 0.8})
	opts := Options{Method: MethodScan, Phi: 1}

	want := singleNode(t, tuples, m, q, k, opts)
	right := want.Regions[0].Right
	if len(right) != 2 || right[0].Above != rID || right[0].Below != dID || right[1].Above != dID || right[1].Below != cID {
		t.Fatalf("single node: upward perturbations of dimension 0 are %+v, want d over r then c over d", right)
	}

	all0, shipped0 := shardLines(t, tuples[:cut], m, 0, q, k, want.Result, opts)
	all1, shipped1 := shardLines(t, tuples[cut:], m, cut, q, k, want.Result, opts)
	if got := replay(q, k, want.Result, opts, shipped0, shipped1); !reflect.DeepEqual(got, want.Regions) {
		t.Errorf("replay of the shipped lines differs from the single node:\n got %+v\nwant %+v", got, want.Regions)
	}

	local0 := locallyAccepted(q, want.Result, all0, opts)
	if slices.ContainsFunc(local0, func(sc topk.Scored) bool { return sc.ID == cID }) {
		t.Fatalf("shard 0's own boundaries accepted c; the case no longer builds the trap: %+v", local0)
	}
	wrong := replay(q, k, want.Result, opts, local0, locallyAccepted(q, want.Result, all1, opts))
	if got := wrong[0].Right; len(got) != 1 || got[0] != right[0] {
		t.Errorf("shard-local acceptance should lose exactly c's perturbation, replayed %+v", got)
	}
}

// TestShardHorizonGap reproduces a gap that predates relevance pruning
// and is independent of it (ROADMAP, open items): a shard's Phase 3
// stops resuming its scan once the unseen-tuple cap clears the SHARD's
// envelope up to the SHARD's horizon, and the trap above says that
// horizon can close before the union's. A tuple the shard's scan never
// reached can then be one the union needs; no reply can carry it.
//
// q = (0.6, 0.1), k = 1, φ = 1, downward deviations of dimension 0.
// Over the union, tuple 7 passes the result (tuple 8) at 0.456 and the
// flat line of tuple 6 passes 7 at 0.557. Shard 0 holds tuples 0–6:
// alone, 0 passes the result at 0.483 and 5 passes 0 at 0.5, closing
// shard 0's horizon before 6 — never encountered by its scan — matters.
// The test skips while the gap is open and passes once it is closed.
func TestShardHorizonGap(t *testing.T) {
	tuples := []vec.Sparse{
		vec.FromDense([]float64{0.5, 0.35}),
		vec.FromDense([]float64{0.6, 0}),
		vec.FromDense([]float64{0, 0.45}),
		vec.FromDense([]float64{0.3, 0.05}),
		vec.FromDense([]float64{0.25, 0.55}),
		vec.FromDense([]float64{0.3, 0.55}),
		vec.FromDense([]float64{0, 0.8}),
		vec.FromDense([]float64{0.35, 0.65}),
		vec.FromDense([]float64{0.8, 0}),
	}
	const m, k, cut = 2, 1, 7
	q := vec.MustQuery([]int{0, 1}, []float64{0.6, 0.1})
	opts := Options{Method: MethodScan, Phi: 1}

	want := singleNode(t, tuples, m, q, k, opts)
	if left := want.Regions[0].Left; len(left) != 2 || left[1].Above != 7 || left[1].Below != 6 {
		t.Fatalf("single node: downward perturbations of dimension 0 are %+v, want 7 over 8 then 6 over 7", left)
	}
	all0, shipped0 := shardLines(t, tuples[:cut], m, 0, q, k, want.Result, opts)
	all1, shipped1 := shardLines(t, tuples[cut:], m, cut, q, k, want.Result, opts)
	unpruned := replay(q, k, want.Result, opts, all0, all1)
	if got := replay(q, k, want.Result, opts, shipped0, shipped1); !reflect.DeepEqual(got, unpruned) {
		t.Errorf("pruned replay differs from the unpruned one:\n got %+v\nwant %+v", got, unpruned)
	}
	if !reflect.DeepEqual(unpruned, want.Regions) {
		t.Skipf("known gap: shard 0 offered tuples %v and never reached tuple 6, so the replay misses the union's second perturbation:\n got %+v\nwant %+v",
			idsOf(all0), unpruned[0].Left, want.Regions[0].Left)
	}
}

// TestImposedIgnoresParallelism: Options.Parallelism is inert, so an
// imposed computation asked for it answers exactly as without it —
// regions, counts and contributed lines — where it used to panic.
func TestImposedIgnoresParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(1502))
	imposed := func(part []vec.Sparse, m, base int, q vec.Query, k int, res []topk.Scored, opts Options) (*Output, []topk.Scored) {
		ta := topk.New(lists.NewMemIndex(part, m), q, k, topk.BestList)
		defer ta.Release()
		runner := WithImposed(ta, base, res)
		out, err := ComputeView(context.Background(), runner, opts)
		if err != nil {
			t.Fatal(err)
		}
		lines, _ := runner.(*imposedRunner).ContributedLines()
		return out, lines
	}
	for trial := 0; trial < 20; trial++ {
		tuples, m, q, k, bases, _ := randShardedCase(rng, 60)
		opts := Options{Method: Methods[trial%len(Methods)], Phi: trial % 3}
		res := singleNode(t, tuples, m, q, k, opts).Result
		hi := len(tuples)
		if len(bases) > 1 {
			hi = bases[1]
		}
		want, wantLines := imposed(tuples[:hi], m, 0, q, k, res, opts)
		opts.Parallelism = 2
		got, gotLines := imposed(tuples[:hi], m, 0, q, k, res, opts)
		gm, wm := got.Metrics, want.Metrics
		gm.Phase1, gm.Phase2, gm.Phase3 = wm.Phase1, wm.Phase2, wm.Phase3
		if !reflect.DeepEqual(got.Regions, want.Regions) || !reflect.DeepEqual(gm, wm) || !reflect.DeepEqual(gotLines, wantLines) {
			t.Errorf("trial %d %+v: Parallelism 2 answers\n %+v %+v\nnot\n %+v %+v", trial, opts, got.Regions, gm, want.Regions, wm)
		}
	}
}

func idsOf(s []topk.Scored) []int {
	out := make([]int, len(s))
	for i, x := range s {
		out[i] = x.ID
	}
	return out
}
