package geom

import (
	"cmp"
	"math"
	"math/big"
)

// X is an exact position on the x axis: where line P meets the steeper
// line Q (P.B < Q.B), x = (P.A − Q.A) / (Q.B − P.B). Sweeps and
// envelopes keep their crossings as X and order them with Cmp; a
// position given as a float64 is At(x).
type X struct{ P, Q Line }

// At is x as an X: where y = x meets y = t.
func At(x float64) X { return X{P: Line{A: x}, Q: Line{B: 1}} }

// Cmp returns -1, 0 or +1 as u lies before, at or after v, exactly.
// One crossing compared with itself — a horizon with the one a decision
// was made under, an event with its duplicate — is equal at once: its
// float64 evaluation cancels exactly, so the filter could not tell.
func Cmp(u, v X) int {
	if u == v {
		return 0
	}
	return det(u.P.A, u.Q.A, v.Q.B, v.P.B, v.P.A, v.Q.A, u.Q.B, u.P.B)
}

// Sign returns the sign of l(x) − m(x), exactly.
func Sign(l, m Line, x X) int { return det(l.A, m.A, x.Q.B, x.P.B, x.P.A, x.Q.A, m.B, l.B) }

// Floor returns the largest float64 not past u: a region bound rounded
// inward, toward the query it bounds. With n = nh + nl and d = dh + dl
// the crossing's numerator and denominator as exact two-term sums, nh/dh
// is within 3 ulps of n/d; the exact sign of f·d − n then steps f to the
// floor.
func (u X) Floor() float64 {
	nh, nl := twoDiff(u.P.A, u.Q.A)
	dh, dl := twoDiff(u.Q.B, u.P.B)
	if nh == 0 {
		return 0
	}
	past := func(f float64) (int, bool) { // sign of f·d − n
		var s expansion
		ok := s.addProd(f, dh) && s.addProd(f, dl)
		s.add(-nl)
		s.add(-nh)
		return s.sign(), ok
	}
	f := nh / dh
	s, ok := past(f)
	for step := 0; ok && step < 4; step++ {
		if s > 0 {
			f = math.Nextafter(f, math.Inf(-1))
			if s, ok = past(f); ok && s <= 0 {
				return f
			}
			continue
		}
		g := math.Nextafter(f, math.Inf(1))
		if s, ok = past(g); ok && s > 0 {
			return f
		}
		f = g
	}
	return u.floorBig()
}

// floorBig is Floor in math/big, for operands outside the range of the
// two-product.
func (u X) floorBig() float64 {
	var q big.Float
	f, acc := q.SetPrec(53).SetMode(big.ToNegativeInf).Quo(diff(u.P.A, u.Q.A), diff(u.Q.B, u.P.B)).Float64()
	if acc == big.Above { // a subnormal quotient, rounded again to nearest
		f = math.Nextafter(f, math.Inf(-1))
	}
	return f
}

// det returns the sign of (a−b)(c−d) − (e−f)(g−h), exactly. The float64
// value decides when it clears its forward error bound: each difference,
// product and the final subtraction rounds once, under 3u of the two
// products' magnitudes with u = 2⁻⁵³; the bound takes 4u, plus a term
// for products that underflow (Shewchuk 1997). Inside the bound — ties,
// lines through one point — the sign of a float64 difference is still
// exact, so when the two products differ in sign, or one is zero, the
// signs decide; only otherwise is it recomputed exactly, as a sum of
// two-products, or in math/big for operands outside their range. Every
// product rounds on its own (no fused multiply-add), which the bound
// and the two-product assume.
func det(a, b, c, d, e, f, g, h float64) int {
	x, y, z, w := a-b, c-d, e-f, g-h
	p, r := float64(x*y), float64(z*w)
	v, bound := p-r, float64((math.Abs(p)+math.Abs(r))*0x1p-51)+0x1p-1070
	switch {
	case v > bound:
		return 1
	case -v > bound:
		return -1
	}
	if sl, sr := sign(x)*sign(y), sign(z)*sign(w); sl != sr || sl == 0 {
		return cmp.Compare(sl, sr)
	}
	var s expansion
	xh, xl := twoDiff(a, b)
	yh, yl := twoDiff(c, d)
	zh, zl := twoDiff(f, e) // −(e−f)
	wh, wl := twoDiff(g, h)
	if s.addProd(xh, yh) && s.addProd(xh, yl) && s.addProd(xl, yh) && s.addProd(xl, yl) &&
		s.addProd(zh, wh) && s.addProd(zh, wl) && s.addProd(zl, wh) && s.addProd(zl, wl) {
		return s.sign()
	}
	var l, m big.Float
	l.SetPrec(exactPrec).Mul(diff(a, b), diff(c, d))
	m.SetPrec(exactPrec).Mul(diff(e, f), diff(g, h))
	return l.Cmp(&m)
}

// expansion is an exact sum of float64s as nonoverlapping components,
// smallest first (Shewchuk 1997): its sign is its largest nonzero
// component's.
type expansion struct {
	c [16]float64
	n int
}

// add adds x exactly (Shewchuk's Grow-Expansion).
func (s *expansion) add(x float64) {
	if x == 0 {
		return
	}
	for i := range s.n {
		x, s.c[i] = twoSum(x, s.c[i])
	}
	s.c[s.n] = x
	s.n++
}

// addProd adds a·b exactly and reports whether it could: the
// two-product is exact when neither factor overflows its split and the
// error term does not underflow, which factors in [2⁻⁴⁵⁰, 2⁴⁵⁰] ensure.
func (s *expansion) addProd(a, b float64) bool {
	if a == 0 || b == 0 {
		return true
	}
	if !inRange(a) || !inRange(b) {
		return false
	}
	p, e := twoProd(a, b)
	s.add(e)
	s.add(p)
	return true
}

func (s *expansion) sign() int {
	for i := s.n - 1; i >= 0; i-- {
		if s.c[i] != 0 {
			return sign(s.c[i])
		}
	}
	return 0
}

func inRange(a float64) bool {
	a = math.Abs(a)
	return a >= 0x1p-450 && a <= 0x1p450
}

// twoSum returns s = fl(a+b) and its rounding error, s + e = a + b
// exactly (Knuth).
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bv := s - a
	av := s - bv
	return s, (a - av) + (b - bv)
}

func twoDiff(a, b float64) (s, e float64) { return twoSum(a, -b) }

// twoProd returns p = fl(a·b) and its rounding error, p + e = a·b
// exactly, from Veltkamp's split of each factor into two 26-bit halves
// whose products are exact (Dekker 1971). Each product is rounded on
// its own: a fused multiply-add would break the split.
func twoProd(a, b float64) (p, e float64) {
	p = float64(a * b)
	ah, al := split(a)
	bh, bl := split(b)
	e = float64(al*bl) - (((p - float64(ah*bh)) - float64(al*bh)) - float64(ah*bl))
	return p, e
}

func split(a float64) (hi, lo float64) {
	c := float64((0x1p27 + 1) * a)
	hi = c - (c - a)
	return hi, a - hi
}

// exactPrec holds exactly every difference of two float64s (at most
// 2 099 significant bits) and every product of two such differences.
const exactPrec = 4400

// diff returns a − b exactly.
func diff(a, b float64) *big.Float {
	var x, y big.Float
	x.SetFloat64(a)
	y.SetFloat64(b)
	return new(big.Float).SetPrec(exactPrec).Sub(&x, &y)
}

func sign(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}
