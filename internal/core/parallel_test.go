package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/oracle"
	"repro/internal/topk"
	"repro/internal/vec"
)

// computeWith runs one full TA+Compute at the given parallelism.
func computeWith(t *testing.T, cs fixture.Case, opts core.Options, parallelism int) *core.Output {
	t.Helper()
	ix := lists.NewMemIndex(cs.Tuples, cs.M)
	ta := topk.New(ix, cs.Q, cs.K, topk.BestList)
	opts.Parallelism = parallelism
	out, err := core.Compute(context.Background(), ta, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParallelMatchesSequential: for every method and φ, the forked
// per-dimension path must be deterministic — Parallelism = 1 (forked,
// run on the calling goroutine) and Parallelism = NumCPU must return
// bit-identical Regions, Evaluated counts and Phase-3 pulls. The forked
// regions must also match the exact oracle, and the paper-literal
// shared-scan path (Parallelism = 0) must agree on the regions (its
// Evaluated counts legitimately differ: later dimensions of the shared
// scan observe and evaluate earlier dimensions' Phase-3 pulls).
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	workers := runtime.NumCPU()
	if workers < 2 {
		workers = 2
	}
	trials := 12
	if testing.Short() {
		trials = 5
	}
	var c oracleCheck
	for trial := 0; trial < trials; trial++ {
		n := 8 + rng.Intn(17)
		m := 4 + rng.Intn(5)
		qlen := 2 + rng.Intn(3)
		k := 1 + rng.Intn(5)
		cs := fixture.RandCase(rng, n, m, qlen, k)
		arr := oracle.Arrange(cs.Tuples, cs.Q, cs.K)
		for phi := 0; phi <= 2; phi++ {
			want := arr.Regions(phi, false)
			for _, method := range core.Methods {
				opts := core.Options{Method: method, Phi: phi}
				label := fmt.Sprintf("trial=%d n=%d qlen=%d k=%d phi=%d %v", trial, n, qlen, k, phi, method)

				seq := computeWith(t, cs, opts, 1)
				par := computeWith(t, cs, opts, workers)
				legacy := computeWith(t, cs, opts, 0)

				if !reflect.DeepEqual(seq.Regions, par.Regions) {
					t.Errorf("%s: parallel regions differ from sequential:\n  seq %+v\n  par %+v",
						label, seq.Regions, par.Regions)
				}
				if seq.Metrics.Evaluated != par.Metrics.Evaluated ||
					!reflect.DeepEqual(seq.Metrics.EvaluatedPerDim, par.Metrics.EvaluatedPerDim) {
					t.Errorf("%s: evaluated %d %v (seq) vs %d %v (par)", label,
						seq.Metrics.Evaluated, seq.Metrics.EvaluatedPerDim,
						par.Metrics.Evaluated, par.Metrics.EvaluatedPerDim)
				}
				if seq.Metrics.Phase3Pulled != par.Metrics.Phase3Pulled {
					t.Errorf("%s: phase3 pulled %d (seq) vs %d (par)", label,
						seq.Metrics.Phase3Pulled, par.Metrics.Phase3Pulled)
				}
				if seq.Metrics.SeqPages != par.Metrics.SeqPages || seq.Metrics.RandReads != par.Metrics.RandReads {
					t.Errorf("%s: io (%d,%d) (seq) vs (%d,%d) (par)", label,
						seq.Metrics.SeqPages, seq.Metrics.RandReads,
						par.Metrics.SeqPages, par.Metrics.RandReads)
				}
				c.match(t, func() string { return label + " forked-vs-oracle" }, cs, seq.Regions, want)
				compareRegions(t, label+" legacy-vs-forked", legacy.Regions, seq.Regions)
			}
		}
	}
}

// TestParallelVariants covers the remaining option combinations on the
// forked path: composition-only, iterative φ>0 and the score-biased
// schedule must all be scheduling-independent too.
func TestParallelVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for trial := 0; trial < 6; trial++ {
		cs := fixture.RandCase(rng, 40+rng.Intn(40), 5, 3, 1+rng.Intn(4))
		variants := []core.Options{
			{Method: core.MethodCPT, CompositionOnly: true},
			{Method: core.MethodPrune, Phi: 2, Iterative: true},
			{Method: core.MethodCPT, Phi: 1, Schedule: core.ScheduleScoreBiased},
		}
		for vi, opts := range variants {
			seq := computeWith(t, cs, opts, 1)
			par := computeWith(t, cs, opts, 4)
			if !reflect.DeepEqual(seq.Regions, par.Regions) {
				t.Errorf("trial %d variant %d: regions diverge under parallelism", trial, vi)
			}
			if seq.Metrics.Evaluated != par.Metrics.Evaluated {
				t.Errorf("trial %d variant %d: evaluated %d vs %d", trial, vi,
					seq.Metrics.Evaluated, par.Metrics.Evaluated)
			}
		}
	}
}

// TestParallelDegenerate: |R| < k and qlen = 1 must behave under every
// parallelism setting.
func TestParallelDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	cs := fixture.RandCase(rng, 8, 4, 2, 1)
	for _, p := range []int{0, 1, 8} {
		out := computeWith(t, cs, core.Options{Method: core.MethodCPT}, p)
		if len(out.Regions) != cs.Q.Len() {
			t.Fatalf("parallelism %d: %d regions", p, len(out.Regions))
		}
	}
	// k larger than the dataset: full-domain regions on every path.
	ixSeq := lists.NewMemIndex(cs.Tuples, cs.M)
	ta := topk.New(ixSeq, cs.Q, 1000, topk.BestList)
	out, err := core.Compute(context.Background(), ta, core.Options{Method: core.MethodCPT, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range out.Regions {
		if reg.Lo != -cs.Q.Weights[reg.QPos] || reg.Hi != 1-cs.Q.Weights[reg.QPos] {
			t.Fatalf("degenerate region %+v not full-domain", reg)
		}
	}
}

// TestParallelAcrossPages: the same determinism where forks share more
// than one table page with their parent — a scan deeper than a page —
// so every fork's pulls start in a page the parent half filled and go on
// into pages of the fork's own. Regions and every count must not depend
// on the worker count; `make race` runs it with the detector watching
// the shared pages.
func TestParallelAcrossPages(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	const n, m = 40_000, 3
	tuples := make([]vec.Sparse, n)
	for i := range tuples {
		tp := make(vec.Sparse, m)
		for d := range tp {
			tp[d] = vec.Entry{Dim: d, Val: 0.05 + 0.95*rng.Float64()}
		}
		tuples[i] = tp
	}
	cs := fixture.Case{Tuples: tuples, M: m, Q: vec.MustQuery([]int{0, 1, 2}, []float64{0.9, 0.5, 0.7}), K: 400}
	ta := topk.New(lists.NewMemIndex(cs.Tuples, cs.M), cs.Q, cs.K, topk.BestList)
	if err := ta.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rows := ta.Table().Len(); rows <= 8192 { // one 64 KiB page of 8-byte values per column
		t.Fatalf("the scan stopped at %d rows, inside its first page", rows)
	}
	ta.Release()
	for _, opts := range []core.Options{{Method: core.MethodCPT, Phi: 1}, {Method: core.MethodThres, Phi: 2}} {
		one, many := computeWith(t, cs, opts, 1), computeWith(t, cs, opts, 3)
		if !reflect.DeepEqual(one.Regions, many.Regions) {
			t.Errorf("%v φ=%d: regions depend on the worker count", opts.Method, opts.Phi)
		}
		om, mm := one.Metrics, many.Metrics
		if om.Evaluated != mm.Evaluated || !reflect.DeepEqual(om.EvaluatedPerDim, mm.EvaluatedPerDim) ||
			om.Phase3Pulled != mm.Phase3Pulled || om.RandReads != mm.RandReads || om.SeqPages != mm.SeqPages || om.MemBytes != mm.MemBytes {
			t.Errorf("%v φ=%d: counts depend on the worker count:\n  1: %+v\n  3: %+v", opts.Method, opts.Phi, om, mm)
		}
		if om.Phase3Pulled == 0 {
			t.Errorf("%v φ=%d: no fork pulled anything", opts.Method, opts.Phi)
		}
	}
}
