package core_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/topk"
)

const eps = 1e-12

// runExample executes one configuration on the paper's running example.
func runExample(t *testing.T, opts core.Options) *core.Output {
	t.Helper()
	tuples, q, k := fixture.RunningExample()
	ix := lists.NewMemIndex(tuples, 2)
	ta := topk.New(ix, q, k, topk.RoundRobin)
	out, err := core.Compute(context.Background(), ta, opts)
	if err != nil {
		t.Fatalf("Compute: %v", err)
	}
	return out
}

// TestRunningExampleRegions reproduces Fig. 1/5: IR1 = (−16/35, 0.1),
// IR2 = (−1/18, 0.5), for every method.
func TestRunningExampleRegions(t *testing.T) {
	for _, method := range core.Methods {
		out := runExample(t, core.Options{Method: method})
		if got := out.RankedIDs(); len(got) != 2 || got[0] != 1 || got[1] != 0 {
			t.Fatalf("%v: result %v, want [1 0]", method, got)
		}
		r1, r2 := out.Regions[0], out.Regions[1]
		if math.Abs(r1.Lo-(-16.0/35)) > eps || math.Abs(r1.Hi-0.1) > eps {
			t.Errorf("%v: IR1 = (%v, %v), want (-16/35, 0.1)", method, r1.Lo, r1.Hi)
		}
		if math.Abs(r2.Lo-(-1.0/18)) > eps || math.Abs(r2.Hi-0.5) > eps {
			t.Errorf("%v: IR2 = (%v, %v), want (-1/18, 0.5)", method, r2.Lo, r2.Hi)
		}
		// The perturbations at the inner bounds (Fig. 1 discussion):
		// at +0.1 d1 overtakes d2 (reorder); at −16/35 d3 enters over d1.
		if len(r1.Right) == 0 || r1.Right[0].Above != 1 || r1.Right[0].Below != 0 || r1.Right[0].Entry {
			t.Errorf("%v: IR1 right perturbation %+v, want d1 over d2 reorder", method, r1.Right)
		}
		if len(r1.Left) == 0 || r1.Left[0].Above != 0 || r1.Left[0].Below != 2 || !r1.Left[0].Entry {
			t.Errorf("%v: IR1 left perturbation %+v, want d3 enters over d1", method, r1.Left)
		}
		// IR2's upper bound is the weight-domain edge: no perturbation.
		if len(r2.Right) != 0 {
			t.Errorf("%v: IR2 right should reach the domain edge, got %+v", method, r2.Right)
		}
		if len(r2.Left) == 0 || r2.Left[0].Above != 1 || r2.Left[0].Below != 0 || r2.Left[0].Entry {
			t.Errorf("%v: IR2 left perturbation %+v, want d1 over d2 reorder", method, r2.Left)
		}
	}
}

// TestRunningExamplePhi1 checks the φ=1 discussion of §1: on dimension 1
// the regions to the left of q1 are bounded by the entry of d3 at −16/35
// and the reordering of d3 over d2 at −0.55; to the right by the
// reordering at +0.1 and then the domain edge q1 → 1.
func TestRunningExamplePhi1(t *testing.T) {
	for _, method := range core.Methods {
		for _, iterative := range []bool{false, true} {
			out := runExample(t, core.Options{Method: method, Phi: 1, Iterative: iterative})
			r1 := out.Regions[0]
			if len(r1.Right) != 1 {
				t.Fatalf("%v iter=%v: right events %+v, want exactly 1 (then domain edge)", method, iterative, r1.Right)
			}
			if math.Abs(r1.Right[0].Delta-0.1) > eps {
				t.Errorf("%v iter=%v: first right perturbation at %v, want 0.1", method, iterative, r1.Right[0].Delta)
			}
			if len(r1.Left) != 2 {
				t.Fatalf("%v iter=%v: left events %+v, want 2", method, iterative, r1.Left)
			}
			if math.Abs(r1.Left[0].Delta-(-16.0/35)) > eps || math.Abs(r1.Left[1].Delta-(-0.55)) > eps {
				t.Errorf("%v iter=%v: left perturbations at %v, %v; want -16/35, -0.55",
					method, iterative, r1.Left[0].Delta, r1.Left[1].Delta)
			}
			if !r1.Left[0].Entry || r1.Left[1].Entry {
				t.Errorf("%v iter=%v: left entry flags %+v, want entry then reorder", method, iterative, r1.Left)
			}
			if r1.Left[1].Above != 1 || r1.Left[1].Below != 2 {
				t.Errorf("%v iter=%v: second left perturbation %+v, want d3 over d2", method, iterative, r1.Left[1])
			}
		}
	}
}

// TestRunningExampleResultAfter replays perturbations: per §1, left of
// −16/35 the result is [d2, d3], and past −0.55 it becomes [d3, d2].
func TestRunningExampleResultAfter(t *testing.T) {
	out := runExample(t, core.Options{Method: core.MethodCPT, Phi: 1})
	base := out.RankedIDs()
	r1 := out.Regions[0]

	got, err := r1.ResultAfter(base, false, 0)
	if err != nil {
		t.Fatalf("ResultAfter(left,0): %v", err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("result past -16/35 = %v, want [1 2] (d2, d3)", got)
	}
	got, err = r1.ResultAfter(base, false, 1)
	if err != nil {
		t.Fatalf("ResultAfter(left,1): %v", err)
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 1 {
		t.Errorf("result past -0.55 = %v, want [2 1] (d3, d2)", got)
	}
	got, err = r1.ResultAfter(base, true, 0)
	if err != nil {
		t.Fatalf("ResultAfter(right,0): %v", err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("result past +0.1 = %v, want [0 1] (d1, d2)", got)
	}
}

// TestRunningExampleCompositionOnly verifies §7.4 semantics: reorderings
// within R(q) are ignored, so IR1's upper bound extends to the domain
// edge (the reorder at +0.1 no longer counts) while the lower bound is
// still the entry of d3.
func TestRunningExampleCompositionOnly(t *testing.T) {
	for _, method := range core.Methods {
		out := runExample(t, core.Options{Method: method, CompositionOnly: true})
		r1 := out.Regions[0]
		if math.Abs(r1.Hi-0.2) > eps {
			t.Errorf("%v: composition-only IR1 upper = %v, want 0.2 (domain edge)", method, r1.Hi)
		}
		if math.Abs(r1.Lo-(-16.0/35)) > eps {
			t.Errorf("%v: composition-only IR1 lower = %v, want -16/35", method, r1.Lo)
		}
	}
}

// TestRunningExampleMetrics sanity-checks the metering: Scan evaluates at
// least as many candidates as CPT, and CPT's count is positive.
func TestRunningExampleMetrics(t *testing.T) {
	scan := runExample(t, core.Options{Method: core.MethodScan})
	cpt := runExample(t, core.Options{Method: core.MethodCPT})
	if scan.Metrics.Evaluated < cpt.Metrics.Evaluated {
		t.Errorf("Scan evaluated %d < CPT %d", scan.Metrics.Evaluated, cpt.Metrics.Evaluated)
	}
	if cpt.Metrics.Evaluated <= 0 {
		t.Errorf("CPT evaluated %d, want > 0", cpt.Metrics.Evaluated)
	}
	if scan.Metrics.RandReads <= 0 {
		t.Errorf("Scan random reads %d, want > 0", scan.Metrics.RandReads)
	}
}
