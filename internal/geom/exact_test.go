package geom

import (
	"math"
	"math/big"
	"math/rand/v2"
	"testing"
)

// FuzzCrossingOrder holds the exact predicates to math/big.Rat on raw
// float64 operands — lines P, Q, R and S — ties, parallel lines,
// subnormals and ±0 included: Sign of P − Q at R.A, and, where P is the
// flatter of P, Q and R the flatter of R, S, Cmp of their crossings,
// Sign of R − S at the first, and Floor of the first, with Cmp of the
// floats on either side of it.
func FuzzCrossingOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, pa, pb, qa, qb, ra, rb, sa, sb float64) {
		for _, v := range []float64{pa, pb, qa, qb, ra, rb, sa, sb} {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				t.Skip()
			}
		}
		checkCrossingOrder(t, pa, pb, qa, qb, ra, rb, sa, sb)
	})
}

// TestCrossingOrderNearTies runs FuzzCrossingOrder's checks where the
// float64 filter cannot decide and the two-product stage does: lines
// through nearly one point, scores that are rounded sums of products
// (as the engine's are), tenths and ulp-apart operands.
func TestCrossingOrderNearTies(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 57))
	ulp := func(v float64, n int) float64 {
		for ; n > 0; n-- {
			v = math.Nextafter(v, math.Inf(1))
		}
		for ; n < 0; n++ {
			v = math.Nextafter(v, math.Inf(-1))
		}
		return v
	}
	pick := func(base float64) float64 {
		switch rng.IntN(4) {
		case 0:
			return float64(rng.IntN(11)) / 10
		case 1:
			return ulp(base, rng.IntN(5)-2)
		case 2:
			return float64(rng.Float64()*0.7) + float64(rng.Float64()*0.3)
		}
		return rng.Float64()
	}
	for range 20000 {
		// Three lines nearly through (x0, y0), the fourth anywhere near.
		x0, y0 := pick(0.5), pick(0.5)
		var v [8]float64
		for i := 0; i < 8; i += 2 {
			v[i+1] = pick(x0)
			v[i] = pick(y0 - float64(v[i+1]*x0))
		}
		checkCrossingOrder(t, v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7])
		checkCrossingOrder(t, v[0], min(v[1], v[3]), v[2], max(v[1], v[3]), v[4], min(v[5], v[7]), v[6], max(v[5], v[7]))
	}
}

func checkCrossingOrder(t *testing.T, pa, pb, qa, qb, ra, rb, sa, sb float64) {
	t.Helper()
	p, q, r, s := Line{A: pa, B: pb}, Line{A: qa, B: qb}, Line{A: ra, B: rb}, Line{A: sa, B: sb}
	rat := func(f float64) *big.Rat { return new(big.Rat).SetFloat64(f) }
	sub := func(a, b float64) *big.Rat { return new(big.Rat).Sub(rat(a), rat(b)) }
	mul := func(a, b *big.Rat) *big.Rat { return new(big.Rat).Mul(a, b) }

	// (P − Q)(x) = (pa − qa) + (pb − qb)·x
	if got, want := Sign(p, q, At(ra)), new(big.Rat).Add(sub(pa, qa), mul(sub(pb, qb), rat(ra))).Sign(); got != want {
		t.Fatalf("Sign(%v, %v, At(%v)) = %d, want %d", p, q, ra, got, want)
	}
	if pb >= qb || rb >= sb {
		return
	}
	u, v := X{P: p, Q: q}, X{P: r, Q: s}
	xu := new(big.Rat).Quo(sub(pa, qa), sub(qb, pb))
	xv := new(big.Rat).Quo(sub(ra, sa), sub(sb, rb))
	if got, want := Cmp(u, v), xu.Cmp(xv); got != want {
		t.Fatalf("Cmp(%v, %v) = %d, want %d", u, v, got, want)
	}
	if got, want := Sign(r, s, u), new(big.Rat).Add(sub(ra, sa), mul(sub(rb, sb), xu)).Sign(); got != want {
		t.Fatalf("Sign(%v, %v, %v) = %d, want %d", r, s, u, got, want)
	}
	fl := u.Floor()
	if math.IsInf(fl, -1) {
		if xu.Cmp(rat(-math.MaxFloat64)) >= 0 {
			t.Fatalf("Floor(%v) = -Inf, exact %s", u, xu.FloatString(30))
		}
		return
	}
	if rat(fl).Cmp(xu) > 0 || (fl < math.MaxFloat64 && rat(math.Nextafter(fl, math.Inf(1))).Cmp(xu) <= 0) {
		t.Fatalf("Floor(%v) = %v, exact %s", u, fl, xu.FloatString(30))
	}
	// Within an ulp of a crossing the float64 filter cannot decide.
	for _, g := range []float64{fl, math.Nextafter(fl, math.Inf(1))} {
		if math.IsInf(g, 0) {
			continue
		}
		if got, want := Cmp(At(g), u), rat(g).Cmp(xu); got != want {
			t.Fatalf("Cmp(At(%v), %v) = %d, want %d", g, u, got, want)
		}
	}
}
