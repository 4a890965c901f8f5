package geom

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestLineIntersectX(t *testing.T) {
	a := Line{A: 0, B: 1}
	b := Line{A: 1, B: 0}
	x, ok := a.IntersectX(b)
	if !ok || x != 1 {
		t.Fatalf("IntersectX = %v,%v, want 1,true", x, ok)
	}
	if _, ok := a.IntersectX(Line{A: 5, B: 1}); ok {
		t.Fatal("parallel lines reported as crossing")
	}
}

func randLines(rng *rand.Rand, n int) []Line {
	lines := make([]Line, n)
	for i := range lines {
		lines[i] = Line{A: rng.Float64(), B: rng.Float64(), ID: i}
	}
	return lines
}

// TestSweepMatchesAllPairs: the event-queue sweep must produce exactly
// the crossings the quadratic enumeration finds, in the same order.
func TestSweepMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(12)
		lines := randLines(rng, n)
		xmin, xmax := 0.0, 1+rng.Float64()
		want := CrossingsAllPairs(lines, xmin, xmax)
		sw := NewSweep(lines, xmin, xmax)
		var got []Crossing
		for {
			c, ok := sw.Next()
			if !ok {
				break
			}
			got = append(got, c)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d crossings, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if math.Abs(got[i].X-want[i].X) > 1e-12 {
				t.Fatalf("trial %d crossing %d: x=%v, want %v", trial, i, got[i].X, want[i].X)
			}
			if got[i].I != want[i].I || got[i].J != want[i].J {
				t.Fatalf("trial %d crossing %d: pair (%d,%d), want (%d,%d)",
					trial, i, got[i].I, got[i].J, want[i].I, want[i].J)
			}
		}
	}
}

// TestSweepRanks: at every crossing, RankAbove must equal the true rank
// of line I just before the event.
func TestSweepRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 50; trial++ {
		lines := randLines(rng, 2+rng.Intn(10))
		sw := NewSweep(lines, 0, 2)
		for {
			c, ok := sw.Next()
			if !ok {
				break
			}
			x := c.X - 1e-9
			higher := 0
			vi := lines[c.I].Eval(x)
			for k, l := range lines {
				if k != c.I && l.Eval(x) > vi {
					higher++
				}
			}
			if higher != c.RankAbove {
				t.Fatalf("trial %d: RankAbove=%d, true rank %d", trial, c.RankAbove, higher)
			}
		}
	}
}

func TestHyperplaneDistance(t *testing.T) {
	h := Hyperplane{N: []float64{1, 0}, C: 2}
	if d := h.Distance([]float64{5, 7}); d != 3 {
		t.Fatalf("Distance = %v, want 3", d)
	}
	degenerate := Hyperplane{N: []float64{0, 0}, C: 0}
	if !math.IsInf(degenerate.Distance([]float64{1, 1}), 1) {
		t.Fatal("degenerate hyperplane should be at infinite distance")
	}
}

// TestConvexHullContainsAll: every input point must be inside (or on) the
// hull, and the hull must be convex (all turns counter-clockwise).
func TestConvexHullContainsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(40)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64(), rng.Float64()}
		}
		hull := ConvexHull(pts)
		if len(hull) < 3 {
			t.Fatalf("trial %d: hull of %d random points has %d vertices", trial, n, len(hull))
		}
		for i := range hull {
			o, a, b := hull[i], hull[(i+1)%len(hull)], hull[(i+2)%len(hull)]
			cross := (a.X-o.X)*(b.Y-o.Y) - (a.Y-o.Y)*(b.X-o.X)
			if cross <= 0 {
				t.Fatalf("trial %d: hull not strictly convex/ccw at %d", trial, i)
			}
		}
		for _, p := range pts {
			if !InConvexPolygon(p, hull) {
				t.Fatalf("trial %d: point %v outside hull", trial, p)
			}
		}
	}
}

func TestConvexHullDegenerate(t *testing.T) {
	if got := ConvexHull([]Point{{1, 2}}); len(got) != 1 {
		t.Fatalf("hull of single point: %v", got)
	}
	two := ConvexHull([]Point{{0, 0}, {1, 1}})
	if len(two) != 2 {
		t.Fatalf("hull of two points: %v", two)
	}
}

func TestClipPolygon(t *testing.T) {
	box := []Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	// x ≤ 0.5 halves the box.
	clipped := ClipPolygon(box, Halfplane{A: 1, B: 0, C: 0.5})
	if a := PolygonArea(clipped); math.Abs(a-0.5) > 1e-12 {
		t.Fatalf("area %v after x<=0.5 clip, want 0.5", a)
	}
	// A halfplane containing the whole box leaves it unchanged.
	same := ClipPolygon(box, Halfplane{A: 1, B: 1, C: 10})
	if a := PolygonArea(same); math.Abs(a-1) > 1e-12 {
		t.Fatalf("area %v after no-op clip, want 1", a)
	}
	// A halfplane excluding everything empties it.
	if got := ClipPolygon(box, Halfplane{A: 1, B: 0, C: -1}); len(got) != 0 {
		t.Fatalf("expected empty polygon, got %v", got)
	}
	// Clipping an empty polygon stays empty.
	if got := ClipPolygon(nil, Halfplane{A: 1, B: 0, C: 0}); got != nil {
		t.Fatalf("clip of empty = %v", got)
	}
}

func TestIntersectHalfplanes(t *testing.T) {
	// x+y ≤ 1 over the unit box: a triangle of area 1/2.
	tri := IntersectHalfplanes([]Halfplane{{A: 1, B: 1, C: 1}}, 0, 0, 1, 1)
	if a := PolygonArea(tri); math.Abs(a-0.5) > 1e-12 {
		t.Fatalf("triangle area %v", a)
	}
	// Infeasible system.
	if got := IntersectHalfplanes([]Halfplane{{A: 1, B: 0, C: 0.2}, {A: -1, B: 0, C: -0.8}}, 0, 0, 1, 1); got != nil {
		t.Fatalf("infeasible system returned %v", got)
	}
	// Orientation: results must be counter-clockwise (positive area).
	sq := IntersectHalfplanes([]Halfplane{{A: 1, B: 0, C: 0.7}, {A: 0, B: 1, C: 0.4}}, 0, 0, 1, 1)
	if a := PolygonArea(sq); math.Abs(a-0.28) > 1e-12 {
		t.Fatalf("clipped rectangle area %v, want 0.28", a)
	}
}

func TestDistanceToBoundary(t *testing.T) {
	box := []Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	if d := DistanceToBoundary(Point{0.5, 0.5}, box); math.Abs(d-0.5) > 1e-12 {
		t.Fatalf("center distance %v, want 0.5", d)
	}
	if d := DistanceToBoundary(Point{0.1, 0.5}, box); math.Abs(d-0.1) > 1e-12 {
		t.Fatalf("off-center distance %v, want 0.1", d)
	}
	if d := DistanceToBoundary(Point{0, 0}, box); d != 0 {
		t.Fatalf("corner distance %v, want 0", d)
	}
}

func TestHalfplaneContains(t *testing.T) {
	h := Halfplane{A: 1, B: -1, C: 0} // x ≤ y
	if !h.Contains(Point{0.2, 0.5}) || h.Contains(Point{0.5, 0.2}) {
		t.Fatal("Contains wrong")
	}
}

func TestSortPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([]Point, 500)
	for i := range pts {
		pts[i] = Point{rng.Float64(), rng.Float64()}
	}
	sortPoints(pts)
	if !sort.SliceIsSorted(pts, func(i, j int) bool {
		if pts[i].X != pts[j].X {
			return pts[i].X < pts[j].X
		}
		return pts[i].Y < pts[j].Y
	}) {
		t.Fatal("sortPoints did not sort")
	}
}
