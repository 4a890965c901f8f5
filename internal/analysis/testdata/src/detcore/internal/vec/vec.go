// Fixture for detcore's fused multiply-add rule: a float product under
// + or - in a deterministic package must be rounded on its own.
package vec

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i] // want `float product under \+ or -`
	}
	return s
}

func dotRounded(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

func eval(slope, x, icept float64) float64 {
	return slope*x + icept // want `float product under \+ or -`
}

func evalRounded(slope, x, icept float64) float64 {
	return float64(slope*x) + icept
}

func cross(a, b, c, d float64) float64 {
	return a*d - (b * c) // want `float product under \+ or -` `float product under \+ or -`
}

func negated(a, b, c float64) float64 {
	return c - -(a * b) // want `float product under \+ or -`
}

func narrow(a, b, c float32) float32 {
	c -= a * b // want `float product under \+ or -`
	return c
}

// Not fusable: integer products, constant products, products that feed
// no sum, and sums of rounded products.
func clean(i, j int, a, b, c float64) (int, float64, float64, bool) {
	const half = 0.5
	return i*j + 1, 2*half + c, a * b * c, a*b < c
}

func allowed(a, b, c float64) float64 {
	//lint:allow detcore the fixture's suppression case
	return a*b + c // want:suppressed `float product under \+ or -`
}
