package geom

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/oracle"
)

// kthHighestAt computes the rank-k value among lines at x by sorting.
func kthHighestAt(lines []Line, k int, x float64) float64 {
	vals := make([]float64, len(lines))
	for i, l := range lines {
		vals[i] = l.Eval(x)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	return vals[k-1]
}

// TestKthEnvelopeMatchesPointwise samples the envelope across its domain
// and compares with the exact k-th level. The last rows are two
// identical lines and a third through a point on them, at k = 3: past
// that point the lowest is the third line or the pair, whichever the
// sweep swapped there.
func TestKthEnvelopeMatchesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(12)
		k := 1 + rng.Intn(n)
		lines := randLines(rng, n)
		xmax := 0.5 + rng.Float64()
		if trial >= 80 {
			l, x0 := lines[0], xmax*rng.Float64()
			slope := rng.Float64()
			lines = []Line{l, l, {A: l.Eval(x0) - slope*x0, B: slope}}
			k = 3
		}
		env := KthEnvelope(lines, k, At(xmax))
		if len(env.Breaks) != len(env.Lines)+1 || !slices.IsSortedFunc(env.Breaks, Cmp) {
			t.Fatalf("trial %d: %d breaks %v for %d lines", trial, len(env.Breaks), env.Breaks, len(env.Lines))
		}
		if lo, hi := env.Breaks[0], env.Breaks[len(env.Breaks)-1]; Cmp(lo, At(0)) != 0 || Cmp(hi, At(xmax)) != 0 {
			t.Fatalf("trial %d: domain (%v,%v), want (0,%v)", trial, lo.Floor(), hi.Floor(), xmax)
		}
		for s := 0; s <= 40; s++ {
			x := xmax * float64(s) / 40
			want := oracle.Level(oracleLines(lines), k, x)
			if got := env.Eval(x); math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d k=%d: env(%v)=%v, want %v", trial, k, x, got, want)
			}
		}
	}
}

// reachesLevel reports, exactly, whether l comes level with the k-th
// highest of lines anywhere on [0, end]: l minus that level is linear
// between the level's breaks, which are among the pairwise crossings,
// so the two ends and those crossings decide.
func reachesLevel(lines []Line, k int, end float64, l Line) bool {
	rat := func(f float64) *big.Rat { return new(big.Rat).SetFloat64(f) }
	at := func(m Line, x *big.Rat) *big.Rat {
		v := new(big.Rat).Mul(rat(m.B), x)
		return v.Add(v, rat(m.A))
	}
	xs := []*big.Rat{rat(0), rat(end)}
	for i := range lines {
		for j := i + 1; j < len(lines); j++ {
			if lines[i].B == lines[j].B {
				continue
			}
			x := new(big.Rat).Sub(rat(lines[j].A), rat(lines[i].A))
			if x.Quo(x, new(big.Rat).Sub(rat(lines[i].B), rat(lines[j].B))); x.Sign() > 0 && x.Cmp(xs[1]) < 0 {
				xs = append(xs, x)
			}
		}
	}
	for _, x := range xs {
		vals := make([]*big.Rat, len(lines))
		for i, m := range lines {
			vals[i] = at(m, x)
		}
		slices.SortFunc(vals, func(a, b *big.Rat) int { return b.Cmp(a) })
		if at(l, x).Cmp(vals[k-1]) >= 0 {
			return true
		}
	}
	return false
}

// TestAboveLine: the envelope is above a line iff the line comes level
// with the k-th level nowhere in the domain — touching counts as
// reaching, at a break and on the domain end too — decided exactly,
// against an all-pairs reference in math/big, in general position and
// on a grid, where probes touch the envelope.
func TestAboveLine(t *testing.T) {
	env := KthEnvelope([]Line{{A: 1, B: 1, ID: 0}}, 1, At(1))
	for _, c := range []struct {
		name string
		env  PiecewiseLinear
		l    Line
		want bool
	}{
		{"a parallel lower line", env, Line{A: 0.5, B: 1}, true},
		{"a steeper line crossing inside", env, Line{A: 0.5, B: 2}, false},
		{"a line meeting it on the domain end", env, Line{A: 0, B: 2}, false},
		{"a line touching a break", KthEnvelope([]Line{{A: 1, B: 0, ID: 0}, {A: 0, B: 2, ID: 1}}, 1, At(1)), Line{A: 0.5, B: 1}, false},
	} {
		if got := c.env.AboveLine(c.l); got != c.want {
			t.Errorf("%s: AboveLine = %v, want %v", c.name, got, c.want)
		}
	}
	rng := rand.New(rand.NewSource(22))
	var above, reaching int
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(6)
		lines, probe := randLines(rng, n), Line{A: rng.Float64() - 0.5, B: 2 * (rng.Float64() - 0.25)}
		if trial%2 == 1 {
			lines, probe = gridLines(rng, n), gridLines(rng, 1)[0]
		}
		k := 1 + rng.Intn(n)
		if got, want := KthEnvelope(lines, k, At(1)).AboveLine(probe), !reachesLevel(lines, k, 1, probe); got != want {
			t.Fatalf("trial %d: lines %v k=%d probe %v: AboveLine = %v, want %v", trial, lines, k, probe, got, want)
		} else if got {
			above++
		} else {
			reaching++
		}
	}
	if above == 0 || reaching == 0 {
		t.Fatalf("probes: %d below the envelope, %d reaching it", above, reaching)
	}
}

func TestKthEnvelopePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for rank out of range")
		}
	}()
	KthEnvelope([]Line{{A: 1, B: 1}}, 2, At(1))
}
