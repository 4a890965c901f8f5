package core_test

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/oracle"
	"repro/internal/stb"
	"repro/internal/topk"
	"repro/internal/vec"
)

// rankAt is the exact ranked top-k at weight vector w, parallel to
// q.Dims.
func rankAt(tuples []vec.Sparse, q vec.Query, k int, w []float64) []int {
	return oracle.Rank(tuples, vec.Query{Dims: q.Dims, Weights: w}, k)
}

// TestFootnote1HullInsidePolygon: the cross-polytope spanned by the
// region endpoints — the convex hull of the axis projections — lies
// inside the validity region, at any qlen (footnote 1). Each vertex sits
// on a constraint face, where two lines tie, so the vertices are taken a
// hair inside; the ranked result must hold at every one of them and at
// random convex combinations of them.
func TestFootnote1HullInsidePolygon(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	for trial := 0; trial < 12; trial++ {
		cs := fixture.RandCase(rng, 60, 5, 2+rng.Intn(3), 1+rng.Intn(4))
		ix := lists.NewMemIndex(cs.Tuples, cs.M)
		ta := topk.New(ix, cs.Q, cs.K, topk.BestList)
		out, err := core.Compute(context.Background(), ta, core.Options{Method: core.MethodCPT})
		if err != nil {
			t.Fatal(err)
		}
		base := out.RankedIDs()
		var vertices [][]float64
		for _, reg := range out.Regions {
			for _, dev := range []float64{reg.Lo, reg.Hi} {
				w := slices.Clone(cs.Q.Weights)
				w[reg.QPos] += dev * (1 - 1e-9)
				vertices = append(vertices, w)
			}
		}
		points := slices.Clone(vertices)
		for s := 0; s < 20; s++ {
			w, sum := make([]float64, cs.Q.Len()), 0.0
			for _, v := range vertices {
				l := rng.Float64()
				sum += l
				for j := range w {
					w[j] += l * v[j]
				}
			}
			for j := range w {
				w[j] /= sum
			}
			points = append(points, w)
		}
		for i, w := range points {
			if got := rankAt(cs.Tuples, cs.Q, cs.K, w); !slices.Equal(got, base) {
				t.Errorf("trial %d point %d (%v) of the cross-polytope: result %v, want %v", trial, i, w, got, base)
			}
		}
	}
}

// TestSafeConcurrentSufficiency: deviations passing SafeConcurrent must
// preserve the ranked result — across any qlen, verified by re-querying.
func TestSafeConcurrentSufficiency(t *testing.T) {
	rng := rand.New(rand.NewSource(504))
	for trial := 0; trial < 15; trial++ {
		qlen := 2 + rng.Intn(3)
		cs := fixture.RandCase(rng, 50+rng.Intn(30), 5, qlen, 1+rng.Intn(4))
		ix := lists.NewMemIndex(cs.Tuples, cs.M)
		ta := topk.New(ix, cs.Q, cs.K, topk.BestList)
		out, err := core.Compute(context.Background(), ta, core.Options{Method: core.MethodCPT})
		if err != nil {
			t.Fatal(err)
		}
		base := out.RankedIDs()
		for s := 0; s < 30; s++ {
			devs := make([]float64, qlen)
			for i, reg := range out.Regions {
				if rng.Float64() < 0.5 {
					devs[i] = reg.Hi * rng.Float64()
				} else {
					devs[i] = reg.Lo * rng.Float64()
				}
			}
			safe, err := core.SafeConcurrent(out.Regions, devs)
			if err != nil {
				t.Fatal(err)
			}
			if !safe {
				continue
			}
			w := append([]float64(nil), cs.Q.Weights...)
			for i := range w {
				w[i] += devs[i]
			}
			if got := rankAt(cs.Tuples, cs.Q, cs.K, w); !slices.Equal(got, base) {
				t.Errorf("trial %d: SafeConcurrent approved %v but result changed (%v vs %v)", trial, devs, got, base)
			}
		}
	}
}

// TestSafeConcurrentRejections covers the unsafe branches.
func TestSafeConcurrentRejections(t *testing.T) {
	regions := []core.Regions{
		{Lo: -0.2, Hi: 0.1},
		{Lo: -0.1, Hi: 0.3},
	}
	if _, err := core.SafeConcurrent(regions, []float64{0.1}); err == nil {
		t.Error("length mismatch accepted")
	}
	safe, _ := core.SafeConcurrent(regions, []float64{0.05, 0.15})
	if !safe {
		t.Error("half extents in both dims should be safe (0.5+0.5=1)")
	}
	safe, _ = core.SafeConcurrent(regions, []float64{0.09, 0.27})
	if safe {
		t.Error("0.9+0.9 of the extents exceeds the cross-polytope")
	}
	// Zero extent blocks that direction entirely.
	safe, _ = core.SafeConcurrent([]core.Regions{{Lo: -0.2, Hi: 0}}, []float64{0.01})
	if safe {
		t.Error("movement into a zero extent accepted")
	}
	safe, _ = core.SafeConcurrent([]core.Regions{{Lo: 0, Hi: 0.2}}, []float64{-0.01})
	if safe {
		t.Error("movement into a zero negative extent accepted")
	}
	// The zero vector is always safe.
	safe, _ = core.SafeConcurrent(regions, []float64{0, 0})
	if !safe {
		t.Error("zero deviation rejected")
	}
}

// TestPolytopeContains: the closed cross-polytope test on its boundary
// cases — a deviation reaching one extent exactly is inside and one ulp
// past it is not, per-axis shares add up, a zero extent blocks its
// direction whatever the other axes allow, and zero components never
// count. The anchor is 0, so w is the deviation itself, bit for bit.
func TestPolytopeContains(t *testing.T) {
	p := core.PolytopeOf(make([]float64, 3), []core.Regions{{Lo: -0.2, Hi: 0.1}, {Lo: -0.1, Hi: 0.3}, {}})
	for _, c := range []struct {
		name string
		w    []float64
		want bool
	}{
		{"zero vector", []float64{0, 0, 0}, true},
		{"on the positive extent", []float64{0.1, 0, 0}, true},
		{"on the negative extent", []float64{0, -0.1, 0}, true},
		{"one ulp past the extent", []float64{math.Nextafter(0.1, 1), 0, 0}, false},
		{"one ulp past the negative extent", []float64{0, math.Nextafter(-0.1, -1), 0}, false},
		{"half and half", []float64{0.05, 0.15, 0}, true},
		{"half and half, mixed signs", []float64{-0.1, 0.15, 0}, true},
		{"0.9 + 0.9 of the extents", []float64{0.09, 0.27, 0}, false},
		{"into a zero positive extent", []float64{0, 0, 1e-12}, false},
		{"into a zero negative extent", []float64{0, 0, -1e-12}, false},
		{"shorter weight vector", []float64{0, 0}, false},
		{"longer weight vector", []float64{0, 0, 0, 0}, false},
	} {
		if got := p.Contains(c.w); got != c.want {
			t.Errorf("%s: Contains(%v) = %v, want %v", c.name, c.w, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reaches: no panic on a projection of another length")
		}
	}()
	p.Reaches([]topk.Scored{{Proj: []float64{1, 2, 3}}}, 0, []float64{1, 2})
}

// TestReachTolDerived derives core.ReachTol. On general-position
// instances, the two lines of every side's first perturbation meet
// exactly at the polytope vertex that perturbation bounds; evaluated
// there the way Reaches evaluates a line (anchor-score difference plus
// semi-axis times coordinate difference), their gap is pure rounding.
// That residue must be ulp-scale, ReachTol must clear its maximum by
// three orders of magnitude, and every entering line that defines a
// bound must reach its own analysis' polytope.
func TestReachTolDerived(t *testing.T) {
	rng := rand.New(rand.NewSource(506))
	maxRes, vertices := 0.0, 0
	for trial := 0; trial < 200; trial++ {
		cs := fixture.RandCase(rng, 40+rng.Intn(120), 6, 2+rng.Intn(3), 1+rng.Intn(5))
		ta := topk.New(lists.NewMemIndex(cs.Tuples, cs.M), cs.Q, cs.K, topk.BestList)
		out, err := core.Compute(context.Background(), ta, core.Options{Method: core.MethodCPT})
		ta.Release()
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Result) < cs.K {
			continue
		}
		line := map[int]topk.Scored{}
		for _, sc := range topk.TopKNaive(cs.Tuples, cs.Q, len(cs.Tuples)) {
			line[sc.ID] = sc
		}
		poly := core.PolytopeOf(cs.Q.Weights, out.Regions)
		for jx, reg := range out.Regions {
			for _, side := range []struct {
				x     float64
				perts []core.Perturbation
			}{{reg.Hi, reg.Right}, {reg.Lo, reg.Left}} {
				if len(side.perts) == 0 {
					continue // a domain-edge bound: no line defines it
				}
				a, b := line[side.perts[0].Above], line[side.perts[0].Below]
				res := math.Abs(b.Score - a.Score + side.x*(b.Proj[jx]-a.Proj[jx]))
				maxRes = max(maxRes, res)
				vertices++
				if res > 1e-14 {
					t.Errorf("trial %d dim %d: lines %d and %d miss at their vertex %v by %.3g", trial, reg.Dim, a.ID, b.ID, side.x, res)
				}
				if side.perts[0].Entry && !poly.Reaches(out.Result, b.Score, b.Proj) {
					t.Errorf("trial %d dim %d: line %d defines bound %v but does not reach the polytope", trial, reg.Dim, b.ID, side.x)
				}
			}
		}
	}
	if vertices == 0 || core.ReachTol < 1e3*maxRes {
		t.Fatalf("ReachTol %g is not 10³ above the largest vertex residue %.3g (%d vertices)", core.ReachTol, maxRes, vertices)
	}
	t.Logf("largest vertex residue %.3g over %d bound-defining vertices", maxRes, vertices)
}

// TestValidityPolygonVsSTB: the STB ball B(q, ρ), clipped to the weight
// domain, must sit inside the validity region (ρ is the distance from q
// to the nearest constraint hyperplane): the ranked result holds at
// random points at radius ρ(1 − 10⁻³), at any qlen.
func TestValidityPolygonVsSTB(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 10; trial++ {
		cs := fixture.RandCase(rng, 60, 5, 2+rng.Intn(3), 2)
		res := stb.Radius(cs.Tuples, cs.Q, cs.K)
		if math.IsInf(res.Rho, 1) {
			continue
		}
		base := oracle.Rank(cs.Tuples, cs.Q, cs.K)
		for s := 0; s < 24; s++ {
			w, norm := make([]float64, cs.Q.Len()), 0.0
			for j := range w {
				w[j] = rng.NormFloat64()
				norm += w[j] * w[j]
			}
			in := true
			for j := range w {
				w[j] = cs.Q.Weights[j] + (1-1e-3)*res.Rho*w[j]/math.Sqrt(norm)
				in = in && w[j] >= 0 && w[j] <= 1
			}
			if in && !slices.Equal(rankAt(cs.Tuples, cs.Q, cs.K, w), base) {
				t.Errorf("trial %d: ball point %v (ρ=%v) outside the validity region", trial, w, res.Rho)
			}
		}
	}
}
