package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/oracle"
	"repro/internal/topk"
	"repro/internal/vec"
)

// oracleCheck holds computed regions to the oracle's and counts the
// sides it held.
type oracleCheck struct{ sides int }

// match asserts that got agrees with want on every side: the same
// perturbations — Delta, Above, Below, Entry — in the same order, and
// the innermost bound the first Delta or, with none, the domain edge
// (1 − qj above, −qj below). Deltas are compared to the bit: both round
// the exact crossing inward.
func (c *oracleCheck) match(t *testing.T, label func() string, cs fixture.Case, got []core.Regions, want []oracle.Regions) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d regions, want %d", label(), len(got), len(want))
	}
	for jx, w := range want {
		g := got[jx]
		qj := cs.Q.Weights[jx]
		for _, s := range []struct {
			name          string
			got, want     []core.Perturbation
			bound, domain float64
		}{{"right", g.Right, perts(w.Right), g.Hi, 1 - qj}, {"left", g.Left, perts(w.Left), g.Lo, -qj}} {
			c.sides++
			ok := g.Dim == w.Dim && slices.Equal(s.got, s.want)
			if ok && len(s.got) == 0 {
				ok = s.bound == s.domain
			} else if ok {
				ok = s.bound == s.got[0].Delta
			}
			if !ok {
				t.Errorf("%s dim %d %s: bound %v, %+v; want %+v", label(), w.Dim, s.name, s.bound, s.got, s.want)
			}
		}
	}
}

// perts converts the oracle's perturbations to core's.
func perts(ps []oracle.Perturbation) []core.Perturbation {
	out := make([]core.Perturbation, len(ps))
	for i, p := range ps {
		out[i] = core.Perturbation{Delta: p.Delta, Above: p.Above, Below: p.Below, Entry: p.Entry}
	}
	return out
}

// oracleInstances is how many instances each row of
// TestMethodsMatchOracle draws: ORACLE_INSTANCES when set (make
// test-oracle runs 100 000), else 150, or 25 under -short.
func oracleInstances(t *testing.T) int {
	if s := os.Getenv("ORACLE_INSTANCES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad ORACLE_INSTANCES %q", s)
		}
		return n
	}
	if testing.Short() {
		return 25
	}
	return 150
}

// TestMethodsMatchOracle is the central cross-validation: every method
// (Scan/Prune/Thres/CPT), both algorithm paths (classic at φ=0;
// envelope at φ>0 and for composition-only) and the iterative mode must
// reproduce the exact oracle's answer at φ = 0, 1, 2 — perturbation for
// perturbation. One row draws general-position instances; the other
// draws them from grids and duplicates (core.RandShardedCase), where a
// side the oracle calls degenerate, or near rounding, is only counted.
func TestMethodsMatchOracle(t *testing.T) {
	instances := oracleInstances(t)
	for _, row := range []struct {
		name string
		seed int64
		draw func(*rand.Rand) fixture.Case
	}{
		{"general", 7, func(rng *rand.Rand) fixture.Case {
			return fixture.RandCase(rng, 8+rng.Intn(17), 4+rng.Intn(5), 2+rng.Intn(3), 1+rng.Intn(5))
		}},
		{"tie-heavy", 8, func(rng *rand.Rand) fixture.Case {
			tuples, m, q, k, _ := core.RandShardedCase(rng, 24)
			return fixture.Case{Tuples: tuples, M: m, Q: q, K: k}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(row.seed))
			var c oracleCheck
			for trial := 0; trial < instances && !t.Failed(); trial++ {
				cs := row.draw(rng)
				arr := oracle.Arrange(cs.Tuples, cs.Q, cs.K)
				for phi := 0; phi <= 2; phi++ {
					for _, compOnly := range []bool{false, true} {
						want := arr.Regions(phi, compOnly)
						for _, method := range core.Methods {
							variants := []core.Options{{Method: method, Phi: phi, CompositionOnly: compOnly}}
							if phi > 0 {
								variants = append(variants, core.Options{Method: method, Phi: phi, CompositionOnly: compOnly, Iterative: true})
							}
							for _, opts := range variants {
								ta := topk.New(lists.NewMemIndex(cs.Tuples, cs.M), cs.Q, cs.K, topk.BestList)
								out, err := core.Compute(context.Background(), ta, opts)
								if err != nil {
									t.Fatalf("trial %d: Compute: %v", trial, err)
								}
								c.match(t, func() string {
									return fmt.Sprintf("trial=%d n=%d q=%v k=%d phi=%d comp=%v %v iter=%v",
										trial, len(cs.Tuples), cs.Q, cs.K, phi, compOnly, method, opts.Iterative)
								}, cs, out.Regions, want)
								ta.Release()
							}
						}
					}
				}
			}
			t.Logf("%d instances: %d sides held to the oracle", instances, c.sides)
		})
	}
}

// TestHorizonOutgrowsRejection: a line rejected under a short horizon is
// offered again once a later line pushes the horizon out. k = 1, φ = 1,
// upward on dimension 0 (weights 0.1, 1), with R the result:
//
//	R 1 + 0x    A 0.9 + 0.5x    B 0.81 + 0.8x    D 0.71 + x    L 0.938 + 0.62x
//
// Offered A, B, D, L: A passes R at 0.2 and B passes A at 0.3, so D,
// which first tops them at 0.5, is rejected. Then L passes R at 0.1 and
// stays on top past 0.3, which removes A's and B's events: the second
// event is D passing L at 0.6, not B passing L at 0.71.
func TestHorizonOutgrowsRejection(t *testing.T) {
	tuples := []vec.Sparse{
		vec.FromDense([]float64{0, 1}),        // R
		vec.FromDense([]float64{0.5, 0.85}),   // A
		vec.FromDense([]float64{0.8, 0.73}),   // B
		vec.FromDense([]float64{1, 0.61}),     // D
		vec.FromDense([]float64{0.62, 0.876}), // L
	}
	cs := fixture.Case{Tuples: tuples, M: 2, Q: vec.MustQuery([]int{0, 1}, []float64{0.1, 1}), K: 1}
	line := func(id int) topk.Scored {
		return topk.Scored{ID: id, Score: cs.Q.Score(tuples[id]), Proj: cs.Q.Project(tuples[id])}
	}
	want := oracle.Arrange(tuples, cs.Q, cs.K).Regions(1, false)
	if r := want[0].Right; len(r) != 2 || r[1].Above != 4 || r[1].Below != 3 {
		t.Fatalf("oracle: %+v, want D passing L second", r)
	}
	var c oracleCheck
	for _, order := range [][]int{{1, 2, 3, 4}, {4, 1, 2, 3}} {
		var extra []topk.Scored
		for _, id := range order {
			extra = append(extra, line(id))
		}
		got := core.ReplayRegions(cs.Q, cs.K, []topk.Scored{line(0)}, extra, core.Options{Phi: 1})
		c.match(t, func() string { return fmt.Sprintf("offered %v", order) }, cs, got, want)
	}
}

// TestRegionsPreserveResult samples deviations strictly inside each φ=0
// region and verifies by exact re-querying that the ranked result is
// unchanged, and that it does change just past each perturbation bound:
// the bounds sit on the boundary of the validity region.
func TestRegionsPreserveResult(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		cs := fixture.RandCase(rng, 40+rng.Intn(40), 5, 3, 1+rng.Intn(4))
		ix := lists.NewMemIndex(cs.Tuples, cs.M)
		ta := topk.New(ix, cs.Q, cs.K, topk.BestList)
		out, err := core.Compute(context.Background(), ta, core.Options{Method: core.MethodCPT})
		if err != nil {
			t.Fatal(err)
		}
		base := out.RankedIDs()
		at := func(jx int, delta float64) []int {
			return oracle.Rank(cs.Tuples, cs.Q.Adjust(cs.Q.Dims[jx], delta), cs.K)
		}
		for _, reg := range out.Regions {
			jx := reg.QPos
			for _, frac := range []float64{0.05, 0.5, 0.95} {
				for _, delta := range []float64{reg.Lo * frac, reg.Hi * frac} {
					if got := at(jx, delta); !slices.Equal(got, base) {
						t.Errorf("trial %d dim %d: result at δ=%v is %v, want preserved %v (region %v..%v)",
							trial, reg.Dim, delta, got, base, reg.Lo, reg.Hi)
					}
				}
			}
			// Just past a perturbation bound the result must differ.
			const step = 1e-7
			if len(reg.Right) > 0 && reg.Hi+step < 1-cs.Q.Weights[jx] && slices.Equal(at(jx, reg.Hi+step), base) {
				t.Errorf("trial %d dim %d: result unchanged past upper bound %v", trial, reg.Dim, reg.Hi)
			}
			if len(reg.Left) > 0 && reg.Lo-step > -cs.Q.Weights[jx] && slices.Equal(at(jx, reg.Lo-step), base) {
				t.Errorf("trial %d dim %d: result unchanged past lower bound %v", trial, reg.Dim, reg.Lo)
			}
		}
	}
}

// TestResultAfterMatchesRequery replays the reported perturbations region
// by region (φ=2) and checks each reconstructed ranked list against an
// exact re-query at a deviation inside that region.
func TestResultAfterMatchesRequery(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 15; trial++ {
		cs := fixture.RandCase(rng, 50+rng.Intn(30), 5, 3, 2+rng.Intn(3))
		ix := lists.NewMemIndex(cs.Tuples, cs.M)
		ta := topk.New(ix, cs.Q, cs.K, topk.BestList)
		out, err := core.Compute(context.Background(), ta, core.Options{Method: core.MethodCPT, Phi: 2})
		if err != nil {
			t.Fatal(err)
		}
		base := out.RankedIDs()
		for _, reg := range out.Regions {
			jx := reg.QPos
			checkSide := func(side []core.Perturbation, right bool, domainEnd float64) {
				for i := range side {
					lo := side[i].Delta
					hi := domainEnd
					if i+1 < len(side) {
						hi = side[i+1].Delta
					} else if len(side) == 3 {
						// φ+1 events found: the region past the last one
						// may contain further, untracked perturbations.
						continue
					}
					mid := (lo + hi) / 2
					if math.Abs(hi-lo) < 1e-9 {
						continue // degenerate sliver; midpoint unreliable
					}
					want := oracle.Rank(cs.Tuples, cs.Q.Adjust(cs.Q.Dims[jx], mid), cs.K)
					got, err := reg.ResultAfter(base, right, i)
					if err != nil {
						t.Errorf("trial %d dim %d side right=%v i=%d: %v", trial, reg.Dim, right, i, err)
						continue
					}
					if !slices.Equal(got, want) {
						t.Errorf("trial %d dim %d right=%v region %d: replay %v, requery %v", trial, reg.Dim, right, i, got, want)
					}
				}
			}
			checkSide(reg.Right, true, 1-cs.Q.Weights[jx])
			checkSide(reg.Left, false, -cs.Q.Weights[jx])
		}
	}
}

// TestEvaluationOrdering confirms the paper's efficiency claims hold as
// invariants: pruning and thresholding never evaluate more candidates
// than the baseline, and CPT never more than Prune or Thres alone.
func TestEvaluationOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(2025))
	for trial := 0; trial < 10; trial++ {
		cs := fixture.RandCase(rng, 80, 6, 3, 5)
		counts := map[core.Method]int{}
		for _, method := range core.Methods {
			ix := lists.NewMemIndex(cs.Tuples, cs.M)
			ta := topk.New(ix, cs.Q, cs.K, topk.BestList)
			out, err := core.Compute(context.Background(), ta, core.Options{Method: method})
			if err != nil {
				t.Fatal(err)
			}
			counts[method] = out.Metrics.Evaluated
		}
		if counts[core.MethodPrune] > counts[core.MethodScan] {
			t.Errorf("trial %d: Prune evaluated %d > Scan %d", trial, counts[core.MethodPrune], counts[core.MethodScan])
		}
		if counts[core.MethodThres] > counts[core.MethodScan] {
			t.Errorf("trial %d: Thres evaluated %d > Scan %d", trial, counts[core.MethodThres], counts[core.MethodScan])
		}
		if counts[core.MethodCPT] > counts[core.MethodPrune] {
			t.Errorf("trial %d: CPT evaluated %d > Prune %d", trial, counts[core.MethodCPT], counts[core.MethodPrune])
		}
	}
}
