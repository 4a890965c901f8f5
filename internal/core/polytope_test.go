package core_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/geom"
	"repro/internal/lists"
	"repro/internal/stb"
	"repro/internal/topk"
	"repro/internal/vec"
)

// rankedAtW computes the ranked top-k under an arbitrary weight vector
// (parallel to q.Dims).
func rankedAtW(tuples []vec.Sparse, q vec.Query, k int, w []float64) []int {
	q2 := q.Clone()
	copy(q2.Weights, w)
	res := topk.TopKNaive(tuples, q2, k)
	ids := make([]int, len(res))
	for i, r := range res {
		ids[i] = r.ID
	}
	return ids
}

// TestValidityPolygonPreserves: points sampled strictly inside the
// polygon preserve the ranked result; points in the domain but clearly
// outside perturb it.
func TestValidityPolygonPreserves(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	for trial := 0; trial < 12; trial++ {
		cs := fixture.RandCase(rng, 40+rng.Intn(40), 4, 2, 1+rng.Intn(4))
		poly, err := core.ValidityPolygon2D(cs.Tuples, cs.Q, cs.K)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		qPt := geom.Point{X: cs.Q.Weights[0], Y: cs.Q.Weights[1]}
		if !geom.InConvexPolygon(qPt, poly) {
			t.Fatalf("trial %d: query point outside its own validity polygon", trial)
		}
		base := rankedAtW(cs.Tuples, cs.Q, cs.K, cs.Q.Weights)

		for s := 0; s < 40; s++ {
			p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
			if p.X <= 0 || p.Y <= 0 {
				continue
			}
			got := rankedAtW(cs.Tuples, cs.Q, cs.K, []float64{p.X, p.Y})
			inside := geom.InConvexPolygon(p, poly)
			preserved := equalIDs(got, base)
			margin := geom.DistanceToBoundary(p, poly)
			if margin < 1e-7 {
				continue // too close to the boundary to trust either side
			}
			if inside && !preserved {
				t.Errorf("trial %d: point %v inside polygon but result changed", trial, p)
			}
			if !inside && preserved {
				t.Errorf("trial %d: point %v outside polygon but result preserved", trial, p)
			}
		}
	}
}

// TestAxisProjectionsOnBoundary: the immutable-region endpoints are the
// axis-parallel projections of q onto the validity boundary (Fig. 3) —
// each perturbation-backed endpoint must lie on the polygon boundary.
func TestAxisProjectionsOnBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	for trial := 0; trial < 12; trial++ {
		cs := fixture.RandCase(rng, 50, 4, 2, 2)
		poly, err := core.ValidityPolygon2D(cs.Tuples, cs.Q, cs.K)
		if err != nil {
			t.Fatal(err)
		}
		ix := lists.NewMemIndex(cs.Tuples, cs.M)
		ta := topk.New(ix, cs.Q, cs.K, topk.BestList)
		out, err := core.Compute(context.Background(), ta, core.Options{Method: core.MethodCPT})
		if err != nil {
			t.Fatal(err)
		}
		for _, reg := range out.Regions {
			check := func(dev float64, backed bool) {
				if !backed {
					return // domain-edge bound: not on a constraint face
				}
				w := append([]float64(nil), cs.Q.Weights...)
				w[reg.QPos] += dev
				p := geom.Point{X: w[0], Y: w[1]}
				if d := geom.DistanceToBoundary(p, poly); d > 1e-9 {
					t.Errorf("trial %d dim %d: endpoint %v is %.2g from the boundary", trial, reg.Dim, p, d)
				}
			}
			check(reg.Lo, len(reg.Left) > 0)
			check(reg.Hi, len(reg.Right) > 0)
		}
	}
}

// TestFootnote1HullInsidePolygon: the convex hull of the axis
// projections lies fully inside the validity polygon — the paper's
// footnote-1 claim, verified exactly in 2-D.
func TestFootnote1HullInsidePolygon(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	for trial := 0; trial < 12; trial++ {
		cs := fixture.RandCase(rng, 60, 4, 2, 2)
		poly, err := core.ValidityPolygon2D(cs.Tuples, cs.Q, cs.K)
		if err != nil {
			t.Fatal(err)
		}
		ix := lists.NewMemIndex(cs.Tuples, cs.M)
		ta := topk.New(ix, cs.Q, cs.K, topk.BestList)
		out, err := core.Compute(context.Background(), ta, core.Options{Method: core.MethodCPT})
		if err != nil {
			t.Fatal(err)
		}
		proj := core.AxisProjections(cs.Q, out.Regions)
		var pts []geom.Point
		for _, w := range proj {
			pts = append(pts, geom.Point{X: w[0], Y: w[1]})
		}
		hull := geom.ConvexHull(pts)
		// Every hull vertex (and hence the hull) must be in the polygon.
		for _, p := range hull {
			if !geom.InConvexPolygon(p, poly) {
				t.Errorf("trial %d: hull vertex %v escapes the validity polygon", trial, p)
			}
		}
		// Sampled points of the hull interior as well.
		for s := 0; s < 20 && len(hull) >= 3; s++ {
			a, b, c := hull[rng.Intn(len(hull))], hull[rng.Intn(len(hull))], hull[rng.Intn(len(hull))]
			u, v := rng.Float64(), rng.Float64()
			if u+v > 1 {
				u, v = 1-u, 1-v
			}
			p := geom.Point{
				X: a.X + u*(b.X-a.X) + v*(c.X-a.X),
				Y: a.Y + u*(b.Y-a.Y) + v*(c.Y-a.Y),
			}
			if !geom.InConvexPolygon(p, poly) {
				t.Errorf("trial %d: hull interior point %v escapes the polygon", trial, p)
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
			if got := rankedAtW(cs.Tuples, cs.Q, cs.K, w); !equalIDs(got, base) {
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
// domain, must sit inside the validity polygon (ρ is the distance from q
// to the nearest constraint hyperplane).
func TestValidityPolygonVsSTB(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 10; trial++ {
		cs := fixture.RandCase(rng, 60, 4, 2, 2)
		poly, err := core.ValidityPolygon2D(cs.Tuples, cs.Q, cs.K)
		if err != nil {
			t.Fatal(err)
		}
		res := stb.Radius(cs.Tuples, cs.Q, cs.K)
		if math.IsInf(res.Rho, 1) {
			continue
		}
		for s := 0; s < 24; s++ {
			ang := 2 * math.Pi * float64(s) / 24
			p := geom.Point{
				X: cs.Q.Weights[0] + 0.999*res.Rho*math.Cos(ang),
				Y: cs.Q.Weights[1] + 0.999*res.Rho*math.Sin(ang),
			}
			if p.X < 0 || p.X > 1 || p.Y < 0 || p.Y > 1 {
				continue
			}
			if !geom.InConvexPolygon(p, poly) {
				t.Errorf("trial %d: ball point %v (ρ=%v) outside validity polygon", trial, p, res.Rho)
			}
		}
	}
}

// TestValidityPolygonErrors covers the qlen guard.
func TestValidityPolygonErrors(t *testing.T) {
	tuples, _, _ := fixture.RunningExample()
	q3 := vec.MustQuery([]int{0, 1}, []float64{0.5, 0.5})
	if _, err := core.ValidityPolygon2D(tuples, q3, 2); err != nil {
		t.Fatalf("qlen=2 rejected: %v", err)
	}
	q1 := vec.MustQuery([]int{0}, []float64{0.5})
	if _, err := core.ValidityPolygon2D(tuples, q1, 2); err == nil {
		t.Fatal("qlen=1 accepted")
	}
}
