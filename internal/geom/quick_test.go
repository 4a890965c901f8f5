package geom

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// lineSet is a quick.Generator producing 2–10 random lines in general
// position.
type lineSet []Line

func (lineSet) Generate(rng *rand.Rand, _ int) reflect.Value {
	n := 2 + rng.Intn(9)
	ls := make(lineSet, n)
	for i := range ls {
		ls[i] = Line{A: rng.Float64()*2 - 1, B: rng.Float64()*2 - 1, ID: i}
	}
	return reflect.ValueOf(ls)
}

// TestQuickSweepCompleteness: the sweep finds exactly the crossings the
// quadratic enumeration finds, for arbitrary line sets.
func TestQuickSweepCompleteness(t *testing.T) {
	f := func(ls lineSet) bool {
		want := CrossingsAllPairs(ls, 0, 1)
		sw := NewSweep(ls, 0, 1)
		count := 0
		lastX := 0.0
		for {
			c, ok := sw.Next()
			if !ok {
				break
			}
			if c.X < lastX {
				return false // must be emitted in ascending order
			}
			lastX = c.X
			count++
		}
		return count == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEnvelopeIsKthStatistic: for every rank k and random sample
// points, the envelope value equals the directly computed k-th highest.
func TestQuickEnvelopeIsKthStatistic(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(ls lineSet) bool {
		k := 1 + rng.Intn(len(ls))
		env := KthEnvelope(ls, k, 0, 1)
		for s := 0; s < 12; s++ {
			x := rng.Float64()
			if math.Abs(env.Eval(x)-kthHighestAt(ls, k, x)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEnvelopeMonotoneInSet: adding a line never lowers the k-th
// envelope — the property candidate rejection in §6 relies on.
func TestQuickEnvelopeMonotoneInSet(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	f := func(ls lineSet) bool {
		k := 1 + rng.Intn(len(ls))
		env := KthEnvelope(ls, k, 0, 1)
		extra := Line{A: rng.Float64()*2 - 1, B: rng.Float64()*2 - 1, ID: len(ls)}
		env2 := KthEnvelope(append(append([]Line{}, ls...), extra), k, 0, 1)
		for s := 0; s <= 20; s++ {
			x := float64(s) / 20
			if env2.Eval(x) < env.Eval(x)-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFirstCrossingAboveConsistent: wherever FirstCrossingAbove
// reports x*, the line is never strictly above the envelope before x*,
// and AboveLine agrees with the crossing's existence.
func TestQuickFirstCrossingAboveConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	f := func(ls lineSet) bool {
		k := 1 + rng.Intn(len(ls))
		env := KthEnvelope(ls, k, 0, 1)
		probe := Line{A: rng.Float64()*2 - 1, B: rng.Float64()*2 - 1}
		x, ok := env.FirstCrossingAbove(probe)
		if !ok {
			// Never above ⇒ envelope is ≥ probe throughout (within fp).
			return env.MinDiff(probe) >= -1e-9
		}
		// Strictly before the reported first crossing the probe must not
		// exceed the envelope. (x may be 0 when the probe starts above —
		// then there is no "before" to sample.)
		for s := 0; s < 10; s++ {
			before := x * float64(s) / 10
			if before >= x {
				continue
			}
			if probe.Eval(before) > env.Eval(before)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickHullIdempotent: the hull of a hull is itself.
func TestQuickHullIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	f := func() bool {
		n := 3 + rng.Intn(30)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Float64(), rng.Float64()}
		}
		h1 := ConvexHull(pts)
		h2 := ConvexHull(h1)
		if len(h1) != len(h2) {
			return false
		}
		set := map[Point]bool{}
		for _, p := range h1 {
			set[p] = true
		}
		for _, p := range h2 {
			if !set[p] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
