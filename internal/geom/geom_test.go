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

// gridLines draws n lines from a coarse grid: exact ties at 0, parallel
// and identical lines, lines through one point.
func gridLines(rng *rand.Rand, n int) []Line {
	lines := make([]Line, n)
	for i := range lines {
		lines[i] = Line{A: float64(rng.Intn(5)) / 4, B: float64(rng.Intn(5)) / 4, ID: i}
	}
	return lines
}

// TestSweepMatchesAllPairs: the event-queue sweep must produce exactly
// the swaps the oracle's all-pairs replay finds, in the same canonical
// order and at the same ranks, each X rounded down to the bit — in
// general position and on a grid, where lines tie at 0 and meet several
// at one point.
func TestSweepMatchesAllPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(12)
		lines := randLines(rng, n)
		if trial >= 100 {
			lines = gridLines(rng, n)
		}
		xmax := 1 + rng.Float64()
		want := oracle.Crossings(oracleLines(lines), xmax)
		sw := NewSweep(lines, At(xmax))
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
		for i, w := range want {
			g := got[i]
			if g.X.Floor() != w.X || g.I != w.I || g.J != w.J || g.RankAbove != w.Rank {
				t.Fatalf("trial %d crossing %d: x=%v pair (%d,%d) at rank %d, want x=%v (%d,%d) at %d",
					trial, i, g.X.Floor(), g.I, g.J, g.RankAbove, w.X, w.I, w.J, w.Rank)
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
		sw := NewSweep(lines, At(2))
		for c, ok := sw.Next(); ok; c, ok = sw.Next() {
			n++
			if r := c.RankAbove; order[r] != c.I || order[r+1] != c.J {
				t.Fatalf("%s: crossing %+v, but ranks %d, %d hold %d, %d", label, c, r, r+1, order[r], order[r+1])
			}
			order[c.RankAbove], order[c.RankAbove+1] = c.J, c.I
			if !general {
				continue
			}
			x := c.X.Floor() - 1e-9
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
