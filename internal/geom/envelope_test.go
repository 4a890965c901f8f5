package geom

import (
	"math"
	"math/rand"
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
// that point the lowest line is the third one or the pair, whichever
// the sweep swapped there.
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
		env := KthEnvelope(lines, k, 0, xmax)
		if len(env.Breaks) != len(env.Lines)+1 || !sort.Float64sAreSorted(env.Breaks) {
			t.Fatalf("trial %d: %d breaks %v for %d lines", trial, len(env.Breaks), env.Breaks, len(env.Lines))
		}
		if lo, hi := env.Breaks[0], env.Breaks[len(env.Breaks)-1]; lo != 0 || hi != xmax {
			t.Fatalf("trial %d: domain (%v,%v), want (0,%v)", trial, lo, hi, xmax)
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

// TestFirstCrossingAbove compares against dense sampling.
func TestFirstCrossingAbove(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(6)
		lines := randLines(rng, n)
		k := 1 + rng.Intn(n)
		env := KthEnvelope(lines, k, 0, 1)
		probe := Line{A: rng.Float64() - 0.5, B: 2 * (rng.Float64() - 0.25)}
		x, ok := env.FirstCrossingAbove(probe)
		// sample
		firstSample, found := 0.0, false
		for s := 0; s <= 2000; s++ {
			xx := float64(s) / 2000
			if probe.Eval(xx) > env.Eval(xx)+1e-12 {
				firstSample, found = xx, true
				break
			}
		}
		if ok != found {
			// Tolerate a hairline disagreement only when the crossing
			// grazes the domain edge.
			if found && firstSample > 0.999 {
				continue
			}
			t.Fatalf("trial %d: ok=%v but sampling found=%v (first=%v)", trial, ok, found, firstSample)
		}
		if ok && math.Abs(x-firstSample) > 1e-3+1e-9 {
			t.Fatalf("trial %d: crossing at %v, sampling says ~%v", trial, x, firstSample)
		}
	}
}

func TestAboveLineAndMinDiff(t *testing.T) {
	env := KthEnvelope([]Line{{A: 1, B: 1, ID: 0}}, 1, 0, 1)
	if !env.AboveLine(Line{A: 0.5, B: 1}) {
		t.Fatal("parallel lower line should be below")
	}
	if env.AboveLine(Line{A: 0.5, B: 2}) {
		t.Fatal("steeper line crosses inside the domain")
	}
	if d := env.MinDiff(Line{A: 0.5, B: 1}); math.Abs(d-0.5) > 1e-15 {
		t.Fatalf("MinDiff = %v, want 0.5", d)
	}
}

func TestKthEnvelopePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for rank out of range")
		}
	}()
	KthEnvelope([]Line{{A: 1, B: 1}}, 2, 0, 1)
}

// minDiffEval is MinDiff as it was written before its one-pass form:
// Eval, and so segmentAt's binary search, at every break.
func minDiffEval(p PiecewiseLinear, l Line) float64 {
	min := math.Inf(1)
	for _, x := range p.Breaks {
		if d := p.Eval(x) - l.Eval(x); d < min {
			min = d
		}
	}
	return min
}

// TestMinDiffIsPerBreakEval: the one-pass MinDiff equals, to the bit,
// the per-break Eval form on random envelopes — with runs of equal
// breaks (at the domain's ends too), and single-segment ones — against
// random lines.
func TestMinDiffIsPerBreakEval(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 2000; trial++ {
		segs := 1 + rng.Intn(8)
		if trial%5 == 0 {
			segs = 1
		}
		p := PiecewiseLinear{Breaks: make([]float64, segs+1), Lines: randLines(rng, segs)}
		for i := range p.Breaks {
			p.Breaks[i] = float64(rng.Intn(6)) / 5 // a coarse grid: duplicates are common
		}
		sort.Float64s(p.Breaks)
		for probe := 0; probe < 5; probe++ {
			l := Line{A: rng.Float64() - 0.5, B: 2 * (rng.Float64() - 0.5)}
			got, want := p.MinDiff(l), minDiffEval(p, l)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: breaks %v: MinDiff %v, per-break Eval %v", trial, p.Breaks, got, want)
			}
		}
	}
}
