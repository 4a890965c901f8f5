package geom

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/oracle"
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

// oracleLines is lines as internal/oracle takes them.
func oracleLines(lines []Line) []oracle.Line {
	out := make([]oracle.Line, len(lines))
	for i, l := range lines {
		out[i] = oracle.Line{A: l.A, B: l.B}
	}
	return out
}

// TestSweepMatchesAllPairs: the event-queue sweep must produce exactly
// the crossings the exact all-pairs enumeration finds, in the same order.
func TestSweepMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(12)
		lines := randLines(rng, n)
		xmin, xmax := 0.0, 1+rng.Float64()
		want := oracle.Crossings(oracleLines(lines), xmin, xmax)
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

// TestSweepRanks: at every crossing, line I sits at rank RankAbove and
// J right below it in the order the crossings so far have produced, and
// in general position RankAbove is I's true rank just before the event.
// Three lines through (0.5, 1) cross pairwise there — each pair once,
// all three of them — and leave the sweep in reverse order.
func TestSweepRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	check := func(label string, lines []Line, general bool) (order []int, n int) {
		order = make([]int, len(lines))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return lines[order[a]].A > lines[order[b]].A })
		sw := NewSweep(lines, 0, 2)
		for c, ok := sw.Next(); ok; c, ok = sw.Next() {
			n++
			if r := c.RankAbove; order[r] != c.I || order[r+1] != c.J {
				t.Fatalf("%s: crossing %+v, but ranks %d, %d hold %d, %d", label, c, r, r+1, order[r], order[r+1])
			}
			order[c.RankAbove], order[c.RankAbove+1] = c.J, c.I
			if !general {
				continue
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
				t.Fatalf("%s: RankAbove=%d, true rank %d", label, c.RankAbove, higher)
			}
		}
		return order, n
	}
	for trial := 0; trial < 50; trial++ {
		check(fmt.Sprintf("trial %d", trial), randLines(rng, 2+rng.Intn(10)), true)
	}
	concurrent := []Line{{A: 1, B: 0}, {A: 0.5, B: 1}, {A: 0, B: 2}}
	if order, n := check("three lines through one point", concurrent, false); n != 3 || !slices.Equal(order, []int{2, 1, 0}) {
		t.Errorf("three lines through one point: %d crossings, final order %v; want 3 and [2 1 0]", n, order)
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
