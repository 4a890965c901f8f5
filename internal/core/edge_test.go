package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/oracle"
	"repro/internal/topk"
	"repro/internal/vec"
)

// TestScheduleMatchesOracle: the alternative score-biased probing
// schedule must not change any answer, only the probing order.
func TestScheduleMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	var c oracleCheck
	for trial := 0; trial < 8; trial++ {
		cs := fixture.RandCase(rng, 24, 5, 3, 4)
		arr := oracle.Arrange(cs.Tuples, cs.Q, cs.K)
		for _, phi := range []int{0, 2} {
			want := arr.Regions(phi, false)
			for _, method := range []core.Method{core.MethodThres, core.MethodCPT} {
				ix := lists.NewMemIndex(cs.Tuples, cs.M)
				ta := topk.New(ix, cs.Q, cs.K, topk.BestList)
				out, err := core.Compute(context.Background(), ta, core.Options{
					Method: method, Phi: phi, Schedule: core.ScheduleScoreBiased,
				})
				if err != nil {
					t.Fatal(err)
				}
				c.match(t, func() string { return fmt.Sprintf("trial %d φ=%d score-biased %v", trial, phi, method) }, cs, out.Regions, want)
			}
		}
	}
}

// TestExtremeK covers k=1 and k=n against the oracle.
func TestExtremeK(t *testing.T) {
	rng := rand.New(rand.NewSource(315))
	var c oracleCheck
	for trial := 0; trial < 6; trial++ {
		n := 12 + rng.Intn(13)
		cs := fixture.RandCase(rng, n, 5, 3, 1)
		for _, k := range []int{1, n} {
			cs.K = k
			want := oracle.Arrange(cs.Tuples, cs.Q, k).Regions(1, false)
			for _, method := range core.Methods {
				ix := lists.NewMemIndex(cs.Tuples, cs.M)
				ta := topk.New(ix, cs.Q, k, topk.BestList)
				out, err := core.Compute(context.Background(), ta, core.Options{Method: method, Phi: 1})
				if err != nil {
					t.Fatal(err)
				}
				c.match(t, func() string { return fmt.Sprintf("trial %d k=%d %v", trial, k, method) }, cs, out.Regions, want)
			}
		}
	}
}

// TestSingleQueryDimension: with qlen=1 every score is q0·coord, so
// scaling the weight can never reorder tuples — the region must span
// (essentially) the whole weight domain. This configuration is fully
// degenerate: all score lines meet at exactly δ=−q0 (where every score
// hits zero), so floating-point rounding may report a perturbation a
// hair inside the domain edge; anything further inside is a bug.
func TestSingleQueryDimension(t *testing.T) {
	rng := rand.New(rand.NewSource(316))
	for trial := 0; trial < 6; trial++ {
		cs := fixture.RandCase(rng, 40, 4, 1, 3)
		q0 := cs.Q.Weights[0]
		for _, method := range core.Methods {
			for _, force := range []bool{false, true} {
				ix := lists.NewMemIndex(cs.Tuples, cs.M)
				ta := topk.New(ix, cs.Q, cs.K, topk.BestList)
				out, err := core.Compute(context.Background(), ta, core.Options{Method: method, ForceEnvelope: force})
				if err != nil {
					t.Fatal(err)
				}
				reg := out.Regions[0]
				if math.Abs(reg.Hi-(1-q0)) > 1e-9 {
					t.Errorf("trial %d %v force=%v: Hi=%v, want %v", trial, method, force, reg.Hi, 1-q0)
				}
				if math.Abs(reg.Lo-(-q0)) > 1e-9 {
					t.Errorf("trial %d %v force=%v: Lo=%v, want %v", trial, method, force, reg.Lo, -q0)
				}
				for _, p := range append(append([]core.Perturbation{}, reg.Left...), reg.Right...) {
					if math.Abs(math.Abs(p.Delta)-q0) > 1e-9 && math.Abs(p.Delta-(1-q0)) > 1e-9 {
						t.Errorf("trial %d %v force=%v: interior perturbation %+v", trial, method, force, p)
					}
				}
			}
		}
	}
}

// TestWeightAtDomainEdge: with qj=1 the upward domain is empty; with a
// tiny qj the downward domain nearly is.
func TestWeightAtDomainEdge(t *testing.T) {
	tuples := []vec.Sparse{
		vec.FromDense([]float64{0.9, 0.2}),
		vec.FromDense([]float64{0.5, 0.8}),
		vec.FromDense([]float64{0.3, 0.1}),
	}
	q := vec.MustQuery([]int{0, 1}, []float64{1.0, 0.05})
	ix := lists.NewMemIndex(tuples, 2)
	ta := topk.New(ix, q, 2, topk.BestList)
	out, err := core.Compute(context.Background(), ta, core.Options{Method: core.MethodCPT})
	if err != nil {
		t.Fatal(err)
	}
	r0 := out.Regions[0]
	if r0.Hi != 0 {
		t.Errorf("qj=1: upper deviation %v, want 0", r0.Hi)
	}
	if r0.Lo < -1 {
		t.Errorf("lower deviation %v below -qj", r0.Lo)
	}
	var c oracleCheck
	cs := fixture.Case{Tuples: tuples, M: 2, Q: q, K: 2}
	c.match(t, func() string { return "domain-edge" }, cs, out.Regions, oracle.Arrange(tuples, q, 2).Regions(0, false))
}

// TestKExceedsN: with fewer tuples than k nothing can perturb the
// result; regions span the whole weight domain.
func TestKExceedsN(t *testing.T) {
	tuples, q, _ := fixture.RunningExample()
	ix := lists.NewMemIndex(tuples, 2)
	ta := topk.New(ix, q, 10, topk.BestList)
	out, err := core.Compute(context.Background(), ta, core.Options{Method: core.MethodCPT, Phi: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, reg := range out.Regions {
		qj := q.Weights[reg.QPos]
		if reg.Lo != -qj || reg.Hi != 1-qj {
			t.Errorf("dim %d: region (%v,%v), want full domain (-%v,%v)", reg.Dim, reg.Lo, reg.Hi, qj, 1-qj)
		}
		if len(reg.Left) != 0 || len(reg.Right) != 0 {
			t.Errorf("dim %d: unexpected perturbations %+v %+v", reg.Dim, reg.Left, reg.Right)
		}
	}
}

// TestNegativePhiRejected covers the Compute validation path.
func TestNegativePhiRejected(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	ix := lists.NewMemIndex(tuples, 2)
	ta := topk.New(ix, q, k, topk.BestList)
	if _, err := core.Compute(context.Background(), ta, core.Options{Phi: -1}); err == nil {
		t.Fatal("negative phi accepted")
	}
}

// TestResultAfterErrors covers the replay error paths.
func TestResultAfterErrors(t *testing.T) {
	reg := core.Regions{Right: []core.Perturbation{{Above: 5, Below: 7, Entry: true}}}
	if _, err := reg.ResultAfter([]int{1, 2}, true, 3); err == nil {
		t.Error("out-of-range perturbation index accepted")
	}
	// Entry expects Above at the last rank.
	if _, err := reg.ResultAfter([]int{1, 2}, true, 0); err == nil {
		t.Error("entry with wrong last tuple accepted")
	}
	// Reorder on a non-adjacent pair must fail.
	reg2 := core.Regions{Right: []core.Perturbation{{Above: 9, Below: 1}}}
	if _, err := reg2.ResultAfter([]int{1, 2, 9}, true, 0); err == nil {
		t.Error("non-adjacent reorder accepted")
	}
}

// TestMetricsHelpers covers the aggregate accessors.
func TestMetricsHelpers(t *testing.T) {
	m := core.Metrics{Evaluated: 12, EvaluatedPerDim: []int{6, 6}, Phase1: 1, Phase2: 2, Phase3: 3}
	if got := m.EvaluatedPerDimAvg(); got != 6 {
		t.Errorf("EvaluatedPerDimAvg = %v", got)
	}
	if got := m.CPU(); got != 6 {
		t.Errorf("CPU = %v", got)
	}
	if (core.Metrics{}).EvaluatedPerDimAvg() != 0 {
		t.Error("empty metrics avg not 0")
	}
}

// TestMethodStrings covers the Stringers.
func TestMethodStrings(t *testing.T) {
	names := map[core.Method]string{
		core.MethodScan: "Scan", core.MethodPrune: "Prune",
		core.MethodThres: "Thres", core.MethodCPT: "CPT",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if core.ScheduleRoundRobin.String() != "round-robin" || core.ScheduleScoreBiased.String() != "score-biased" {
		t.Error("schedule names wrong")
	}
}

// TestDegenerateEqualCoordinates: tuples sharing the varied coordinate
// run in parallel and never constrain the region.
func TestDegenerateEqualCoordinates(t *testing.T) {
	tuples := []vec.Sparse{
		vec.FromDense([]float64{0.5, 0.9}),
		vec.FromDense([]float64{0.5, 0.7}),
		vec.FromDense([]float64{0.5, 0.5}),
		vec.FromDense([]float64{0.5, 0.3}),
	}
	q := vec.MustQuery([]int{0, 1}, []float64{0.6, 0.6})
	ix := lists.NewMemIndex(tuples, 2)
	ta := topk.New(ix, q, 2, topk.BestList)
	out, err := core.Compute(context.Background(), ta, core.Options{Method: core.MethodCPT})
	if err != nil {
		t.Fatal(err)
	}
	// All tuples share the first coordinate: varying q0 changes nothing.
	r0 := out.Regions[0]
	if r0.Lo != -0.6 || math.Abs(r0.Hi-0.4) > 1e-15 {
		t.Errorf("parallel tuples: region (%v,%v), want full domain", r0.Lo, r0.Hi)
	}
}
