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

// TestRunningExample: the paper's Fig. 1 at φ = 1 (§1). On dimension 0,
// d1 overtakes d2 at +0.1; d3 enters over d1 at −16/35 and overtakes d2
// at −0.55. On dimension 1 the upward region reaches the domain edge and
// d1 overtakes d2 at −1/18. The oracle's lines start at the float64
// scores the engine ranks by, so each δ is the paper's to within their
// rounding (≈ 10⁻¹⁶) over the slope gap (≥ 0.1).
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
		for s, got := range [][]oracle.Perturbation{r.Right, r.Left} {
			if !slices.EqualFunc(got, want[jx][s], func(a, b oracle.Perturbation) bool {
				return math.Abs(a.Delta-b.Delta) < 1e-14 && a.Above == b.Above && a.Below == b.Below && a.Entry == b.Entry
			}) {
				t.Errorf("dim %d side %d: %+v, want %+v", jx, s, got, want[jx][s])
			}
		}
	}
}

// TestDegenerateClasses: the inputs that have no answer in general
// position each get the canonical one. Three lines through one point
// swap pairwise there, each time the adjacent pair whose lower line has
// the smallest id; a crossing on the domain end perturbs nothing; a
// duplicate of the result's line ranks below it and is passed with it;
// two tied tuples swap at δ = 0 when the one ranked second is steeper.
func TestDegenerateClasses(t *testing.T) {
	// Upward on dimension 0 from 0.25 (domain end 0.75), k = 1: tuples
	// 0–2 are the lines 0.75 + 0.5x, 0.625 + 0.75x and 0.5 + x, all
	// through (0.5, 1); tuple 3, 0.71875 + 0.625x, overtakes tuple 0 at
	// 0.25, tuple 2 overtakes it at 7/12, and it meets tuple 1 on the
	// domain end.
	q := vec.MustQuery([]int{0, 1}, []float64{0.25, 1})
	tuples := []vec.Sparse{
		vec.FromDense([]float64{0.5, 0.625}),
		vec.FromDense([]float64{0.75, 0.4375}),
		vec.FromDense([]float64{1, 0.25}),
		vec.FromDense([]float64{0.625, 0.5625}),
	}
	seven12 := math.Nextafter(7.0/12, 0) // 7/12 rounded to nearest is above it
	for _, c := range []struct {
		name   string
		tuples []vec.Sparse
		k, phi int
		want   []oracle.Perturbation
	}{
		{"three lines through one point", tuples[:3], 1, 1, []oracle.Perturbation{{0.5, 0, 1, true}, {0.5, 1, 2, true}}},
		{"the concurrency past the horizon", tuples, 1, 0, []oracle.Perturbation{{0.25, 0, 3, true}}},
		{"the concurrency below the top k", tuples, 1, 1, []oracle.Perturbation{{0.25, 0, 3, true}, {seven12, 3, 2, true}}},
		{"a crossing on the domain end", []vec.Sparse{tuples[1], tuples[3]}, 1, 0, nil},
		{"a duplicate of the result", []vec.Sparse{tuples[0], tuples[0], tuples[2]}, 1, 1, []oracle.Perturbation{{0.5, 0, 2, true}}},
	} {
		if got := oracle.Arrange(c.tuples, q, c.k).Regions(c.phi, false)[0].Right; !slices.Equal(got, c.want) {
			t.Errorf("%s: %+v, want %+v", c.name, got, c.want)
		}
	}
	tied := []vec.Sparse{vec.FromDense([]float64{0.25, 0.75}), vec.FromDense([]float64{0.75, 0.25}), vec.FromDense([]float64{0.1, 0.1})}
	half := vec.MustQuery([]int{0, 1}, []float64{0.5, 0.5})
	for phi := 0; phi <= 2; phi++ {
		r := oracle.Arrange(tied, half, 2).Regions(phi, false)[0]
		if len(r.Right) == 0 || r.Right[0] != (oracle.Perturbation{Delta: 0, Above: 0, Below: 1}) || len(r.Left) != 0 {
			t.Errorf("two tied tuples, φ = %d: %+v", phi, r)
		}
	}
}

// TestLevelAndCrossings: three lines through (0.5, 1) cross three times
// there, and past it the lowest is the steepest's mirror image.
func TestLevelAndCrossings(t *testing.T) {
	lines := []oracle.Line{{A: 1, B: 0}, {A: 0.5, B: 1}, {A: 0, B: 2}}
	cs := oracle.Crossings(lines, 1)
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
	if got := oracle.Crossings(lines, 0.5); len(got) != 0 {
		t.Errorf("Crossings on [0, 0.5) = %+v, want none: the window is open at its end", got)
	}
}
