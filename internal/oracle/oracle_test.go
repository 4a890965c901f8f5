package oracle_test

import (
	"go/build"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/fixture"
	"repro/internal/oracle"
	"repro/internal/vec"
)

// TestImportsNothingItChecks: the oracle is a reference only while it
// shares no code with what it checks. Its one module import is vec,
// read as data, and vec imports nothing of the module.
func TestImportsNothingItChecks(t *testing.T) {
	for dir, allowed := range map[string][]string{".": {"repro/internal/vec"}, "../vec": nil} {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range pkg.Imports {
			if strings.HasPrefix(imp, "repro") && !slices.Contains(allowed, imp) {
				t.Errorf("%s imports %s", pkg.ImportPath, imp)
			}
		}
	}
}

// TestRunningExample: the paper's Fig. 1 at φ = 1 (§1), exactly. On
// dimension 0, d1 overtakes d2 at +0.1; d3 enters over d1 at −16/35 and
// overtakes d2 at −0.55. On dimension 1 the upward region reaches the
// domain edge and d1 overtakes d2 at −1/18.
func TestRunningExample(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	if got := oracle.Rank(tuples, q, k); !slices.Equal(got, []int{1, 0}) {
		t.Fatalf("Rank = %v, want [1 0]", got)
	}
	regs := oracle.Arrange(tuples, q, k).Regions(1, false)
	want := [][2][]oracle.Perturbation{
		{{{0.1, 1, 0, false}}, {{-16.0 / 35, 0, 2, true}, {-0.55, 1, 2, false}}},
		{nil, {{-1.0 / 18, 1, 0, false}}},
	}
	for jx, r := range regs {
		for s, got := range []oracle.Side{r.Right, r.Left} {
			if got.Degenerate != "" || !(got.Margin > 1e-3) {
				t.Errorf("dim %d side %d: class %q margin %v", jx, s, got.Degenerate, got.Margin)
			}
			if !slices.EqualFunc(got.Perts, want[jx][s], func(a, b oracle.Perturbation) bool {
				return math.Abs(a.Delta-b.Delta) < 1e-15 && a.Above == b.Above && a.Below == b.Below && a.Entry == b.Entry
			}) {
				t.Errorf("dim %d side %d: %+v, want %+v", jx, s, got.Perts, want[jx][s])
			}
		}
	}
}

// TestDegenerateClasses: a duplicate of the k-th tuple ties it at δ = 0;
// three lines through one point cross three times at one δ, which
// matters at or before the (φ+1)-th event and not past it; a crossing
// on the domain end perturbs nothing and leaves no margin.
func TestDegenerateClasses(t *testing.T) {
	// Upward on dimension 0 from 0.25 (domain end 0.75), k = 1: tuples
	// 0–2 are the lines 0.75 + 0.5x, 0.625 + 0.75x and 0.5 + x, all
	// through (0.5, 1); tuple 3, 0.71875 + 0.625x, overtakes tuple 0 at
	// 0.25 and meets tuple 1 on the domain end.
	q := vec.MustQuery([]int{0, 1}, []float64{0.25, 1})
	tuples := []vec.Sparse{
		vec.FromDense([]float64{0.5, 0.625}),
		vec.FromDense([]float64{0.75, 0.4375}),
		vec.FromDense([]float64{1, 0.25}),
		vec.FromDense([]float64{0.625, 0.5625}),
	}
	if r := oracle.Arrange(tuples[:3], q, 1).Regions(0, false)[0].Right; r.Degenerate != oracle.Concurrent {
		t.Errorf("three lines through one point: %+v", r)
	}
	a := oracle.Arrange(tuples, q, 1)
	if r := a.Regions(0, false)[0].Right; r.Degenerate != "" || r.Margin != 0.03125 ||
		!slices.Equal(r.Perts, []oracle.Perturbation{{Delta: 0.25, Above: 0, Below: 3, Entry: true}}) {
		t.Errorf("φ = 0, the concurrency past the horizon: %+v", r)
	}
	if r := a.Regions(1, false)[0].Right; r.Degenerate != oracle.Concurrent {
		t.Errorf("φ = 1, the concurrency before the second event: %+v", r)
	}
	if r := oracle.Arrange([]vec.Sparse{tuples[1], tuples[3]}, q, 1).Regions(0, false)[0].Right; len(r.Perts) != 0 || r.Margin != 0 {
		t.Errorf("a crossing on the domain end: %+v", r)
	}
	dup := []vec.Sparse{tuples[0], tuples[0], tuples[2]}
	if r := oracle.Arrange(dup, q, 1).Regions(0, false)[0]; r.Right.Degenerate != oracle.Tie || r.Left.Degenerate != oracle.Tie {
		t.Errorf("a duplicate of the result: %+v", r)
	}
}

// TestLevelAndCrossings: three lines through (0.5, 1) cross three times
// there, and past it the lowest is the steepest's mirror image.
func TestLevelAndCrossings(t *testing.T) {
	lines := []oracle.Line{{A: 1, B: 0}, {A: 0.5, B: 1}, {A: 0, B: 2}}
	cs := oracle.Crossings(lines, 0, 1)
	if len(cs) != 3 || slices.ContainsFunc(cs, func(c oracle.Crossing) bool { return c.X != 0.5 }) {
		t.Fatalf("Crossings = %+v, want three at 0.5", cs)
	}
	if cs[0].I != 0 || cs[0].J != 1 || cs[2].I != 1 || cs[2].J != 2 {
		t.Errorf("Crossings order %+v, want (0,1) (0,2) (1,2)", cs)
	}
	for _, c := range []struct {
		k    int
		x, y float64
	}{{1, 0, 1}, {3, 0, 0}, {1, 1, 2}, {3, 1, 1}, {2, 0.5, 1}} {
		if got := oracle.Level(lines, c.k, c.x); got != c.y {
			t.Errorf("Level(k=%d, x=%v) = %v, want %v", c.k, c.x, got, c.y)
		}
	}
	if got := oracle.Crossings(lines, 0, 0.5); len(got) != 0 {
		t.Errorf("Crossings on (0, 0.5) = %+v, want none: the interval is open", got)
	}
}
