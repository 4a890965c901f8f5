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

// compareRegions asserts that two computations' regions agree: bounds
// within a tiny tolerance, perturbation identities exactly.
func compareRegions(t *testing.T, label string, got, want []core.Regions) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d regions, want %d", label, len(got), len(want))
	}
	const tol = 1e-9
	for i := range want {
		g, w := got[i], want[i]
		if g.Dim != w.Dim {
			t.Fatalf("%s dim %d: dim id %d, want %d", label, i, g.Dim, w.Dim)
		}
		if math.Abs(g.Lo-w.Lo) > tol || math.Abs(g.Hi-w.Hi) > tol {
			t.Errorf("%s dim %d: region (%.12g, %.12g), want (%.12g, %.12g)", label, g.Dim, g.Lo, g.Hi, w.Lo, w.Hi)
		}
		comparePerts(t, fmt.Sprintf("%s dim %d right", label, g.Dim), g.Right, w.Right)
		comparePerts(t, fmt.Sprintf("%s dim %d left", label, g.Dim), g.Left, w.Left)
	}
}

func comparePerts(t *testing.T, label string, got, want []core.Perturbation) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d perturbations, want %d (%+v vs %+v)", label, len(got), len(want), got, want)
		return
	}
	const tol = 1e-9
	for i := range want {
		g, w := got[i], want[i]
		if math.Abs(g.Delta-w.Delta) > tol || g.Above != w.Above || g.Below != w.Below || g.Entry != w.Entry {
			t.Errorf("%s[%d]: %+v, want %+v", label, i, g, w)
		}
	}
}

// nearTol is the smallest oracle margin (oracle.Side.Margin) a side is
// held to the oracle at. Rounding moves a float64 score by at most
// ~qlen²·2⁻⁵³ ≈ 1e-15 and a crossing by that over the two lines' slope
// gap; the tie-heavy grids' slope gaps are at least 0.1, so their
// positions move by less than ~1e-13. Closer positions may come out of
// a float computation in either order: such a side is counted as "near",
// not compared.
const nearTol = 1e-12

// deltaTol bounds how far the δ at which the core has tuple j overtake
// tuple i on query position jx may lie from the exact δ: each float
// score, a sum of qlen non-negative products, is within (qlen+1)·u of
// itself relatively (u = 2⁻⁵³); the core divides their difference by the
// slope difference, adding ~3u·|δ|, and the oracle rounds δ once. Twice
// that.
func deltaTol(cs fixture.Case, i, j, jx int, delta float64) float64 {
	const u = 0x1p-53
	slope := math.Abs(cs.Tuples[i].Get(cs.Q.Dims[jx]) - cs.Tuples[j].Get(cs.Q.Dims[jx]))
	return 2 * (float64(cs.Q.Len()+1)*u*(cs.Q.Score(cs.Tuples[i])+cs.Q.Score(cs.Tuples[j]))/slope + 4*u*math.Abs(delta))
}

// pinned reports whether an oracle side has one answer a float64
// computation can be held to: not degenerate, margin at least nearTol.
func pinned(s oracle.Side) bool { return s.Degenerate == "" && s.Margin >= nearTol }

// oracleCheck holds computed regions to the oracle's and keeps what one
// test reports: the sides it held and skipped, per reason, and the
// largest Delta tolerance, error and error-to-tolerance ratio it saw.
type oracleCheck struct {
	held                  int
	skipped               map[string]int
	maxTol, maxErr, worst float64
}

// tally counts want's sides as held or skipped, and notes in seen why
// sides were skipped.
func (c *oracleCheck) tally(want []oracle.Regions, seen map[string]bool) {
	for _, w := range want {
		for _, s := range []oracle.Side{w.Right, w.Left} {
			reason := string(s.Degenerate)
			if reason == "" && !pinned(s) {
				reason = "near"
			}
			if reason == "" {
				c.held++
				continue
			}
			c.skipped[reason]++
			seen[reason] = true
		}
	}
}

// match asserts that got agrees with want on every pinned side: the same
// perturbations — Above, Below, Entry — in the same order, each Delta
// within deltaTol of the exact one, and the innermost bound the first
// Delta or, with none, the domain edge (1 − qj above, −qj below).
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
			got           []core.Perturbation
			want          oracle.Side
			bound, domain float64
		}{{"right", g.Right, w.Right, g.Hi, 1 - qj}, {"left", g.Left, w.Left, g.Lo, -qj}} {
			if !pinned(s.want) {
				continue
			}
			ok := g.Dim == w.Dim && len(s.got) == len(s.want.Perts)
			for i := 0; ok && i < len(s.got); i++ {
				gp, wp := s.got[i], s.want.Perts[i]
				tol, err := deltaTol(cs, wp.Above, wp.Below, jx, wp.Delta), math.Abs(gp.Delta-wp.Delta)
				c.maxTol, c.maxErr, c.worst = max(c.maxTol, tol), max(c.maxErr, err), max(c.worst, err/tol)
				ok = gp.Above == wp.Above && gp.Below == wp.Below && gp.Entry == wp.Entry && err <= tol
			}
			if ok && len(s.got) == 0 {
				ok = s.bound == s.domain
			} else if ok {
				ok = s.bound == s.got[0].Delta
			}
			if !ok {
				t.Errorf("%s dim %d %s: bound %v, %+v; want %+v", label(), w.Dim, s.name, s.bound, s.got, s.want.Perts)
			}
		}
	}
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
			tuples, m, q, k, _, _ := core.RandShardedCase(rng, 24)
			return fixture.Case{Tuples: tuples, M: m, Q: q, K: k}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(row.seed))
			c := oracleCheck{skipped: map[string]int{}}
			degenerate := map[string]int{} // instances with a side skipped, per reason
			for trial := 0; trial < instances && !t.Failed(); trial++ {
				cs := row.draw(rng)
				arr := oracle.Arrange(cs.Tuples, cs.Q, cs.K)
				seen := map[string]bool{}
				for phi := 0; phi <= 2; phi++ {
					for _, compOnly := range []bool{false, true} {
						want := arr.Regions(phi, compOnly)
						c.tally(want, seen)
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
				for reason := range seen {
					degenerate[reason]++
				}
				if len(seen) == 0 {
					degenerate["none"]++
				}
			}
			t.Logf("%d instances, per reason a side was skipped: %v; sides held to the oracle %d, skipped %v",
				instances, degenerate, c.held, c.skipped)
			t.Logf("Delta tolerance, derived per perturbation: largest %.3g; largest error %.3g, at most %.3g of its tolerance",
				c.maxTol, c.maxErr, c.worst)
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
	if r := want[0].Right.Perts; len(r) != 2 || r[1].Above != 4 || r[1].Below != 3 {
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
