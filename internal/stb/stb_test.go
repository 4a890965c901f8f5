package stb

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fixture"
	"repro/internal/oracle"
	"repro/internal/vec"
)

// preservedAt reports whether the exact ranked top-k at weight vector w
// (parallel to cs.Q.Dims) is the one at cs.Q.
func preservedAt(cs fixture.Case, w []float64) bool {
	return slices.Equal(oracle.Rank(cs.Tuples, cs.Q, cs.K), oracle.Rank(cs.Tuples, vec.Query{Dims: cs.Q.Dims, Weights: w}, cs.K))
}

// TestRadiusBallPreserves: sampled weight vectors strictly inside the
// ball B(q, ρ) must preserve the ranked result; the binding constraint's
// hyperplane must sit exactly at distance ρ.
func TestRadiusBallPreserves(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 20; trial++ {
		cs := fixture.RandCase(rng, 40+rng.Intn(40), 5, 3, 1+rng.Intn(4))
		res := Radius(cs.Tuples, cs.Q, cs.K)
		if math.IsInf(res.Rho, 1) {
			continue // no competing tuple: nothing to check
		}
		if res.Rho < 0 {
			t.Fatalf("trial %d: negative radius %v", trial, res.Rho)
		}
		if res.Scanned != len(cs.Tuples)-cs.K {
			t.Fatalf("trial %d: scanned %d, want all %d non-result tuples", trial, res.Scanned, len(cs.Tuples)-cs.K)
		}
		// Random directions, 90% of the radius: result must be preserved.
		for s := 0; s < 20; s++ {
			dir := make([]float64, cs.Q.Len())
			norm := 0.0
			for i := range dir {
				dir[i] = rng.NormFloat64()
				norm += dir[i] * dir[i]
			}
			norm = math.Sqrt(norm)
			w := make([]float64, cs.Q.Len())
			ok := true
			for i := range w {
				w[i] = cs.Q.Weights[i] + 0.9*res.Rho*dir[i]/norm
				if w[i] <= 0 || w[i] > 1 {
					ok = false // outside the weight domain; skip sample
				}
			}
			if !ok {
				continue
			}
			if !preservedAt(cs, w) {
				t.Fatalf("trial %d: result changed inside the ball (ρ=%v)", trial, res.Rho)
			}
		}
	}
}

// TestRadiusTightness: stepping distance ρ·(1+ε) along the binding
// constraint's normal must flip that constraint.
func TestRadiusTightness(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	found := 0
	for trial := 0; trial < 30 && found < 10; trial++ {
		cs := fixture.RandCase(rng, 60, 5, 3, 3)
		res := Radius(cs.Tuples, cs.Q, cs.K)
		if math.IsInf(res.Rho, 1) || res.Rho == 0 {
			continue
		}
		// Reconstruct the binding normal from the named tuples.
		above := cs.Q.Project(cs.Tuples[res.Binding.Above])
		below := cs.Q.Project(cs.Tuples[res.Binding.Below])
		n := diff(above, below)
		norm := 0.0
		sign := 0.0
		for i := range n {
			norm += n[i] * n[i]
			sign += n[i] * cs.Q.Weights[i]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		step := -1.001 * res.Rho / norm // move against the constraint
		if sign < 0 {
			step = -step
		}
		w := make([]float64, cs.Q.Len())
		valid := true
		for i := range w {
			w[i] = cs.Q.Weights[i] + step*n[i]
			if w[i] < 0 || w[i] > 1 {
				valid = false
			}
		}
		if !valid {
			continue
		}
		found++
		if preservedAt(cs, w) {
			t.Fatalf("trial %d: result preserved just past ρ=%v along binding normal", trial, res.Rho)
		}
	}
	if found == 0 {
		t.Skip("no in-domain binding direction sampled")
	}
}

// TestRunningExampleRadius: ρ on Fig. 1 must be positive, finite, and no
// larger than the smallest distance implied by the immutable regions
// (each region endpoint is an axis-parallel point on some constraint
// hyperplane, so ρ ≤ min endpoint magnitude).
func TestRunningExampleRadius(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	res := Radius(tuples, q, k)
	if math.IsInf(res.Rho, 1) || res.Rho <= 0 {
		t.Fatalf("rho = %v", res.Rho)
	}
	// Axis-parallel bound magnitudes from Fig. 1: 16/35, 0.1, 1/18, 0.5.
	minAxis := 1.0 / 18
	if res.Rho > minAxis {
		t.Fatalf("rho = %v exceeds the smallest axis-parallel bound %v", res.Rho, minAxis)
	}
}
