package vec

// Scalar reference kernels. These are the semantic ground truth for the
// unrolled block kernels in kernel.go: every optimized variant must be
// bit-identical to its reference on all inputs, which the property tests
// in kernel_test.go assert by comparing float bits.
//
// Bit-identity discipline: all kernels keep a single accumulator per
// output and add terms in ascending index order. Unrolling is only
// allowed to eliminate bounds checks and loop overhead — never to split
// an accumulation into parallel partial sums, which would reassociate
// the floating-point additions and change result bits.

// scalarDot is the reference dot product over equal-length slices.
func scalarDot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// scalarAxpy is the reference y += alpha·x over equal-length slices.
func scalarAxpy(alpha float64, x, y []float64) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// scalarDotBatch is the reference batched score kernel: flatW holds
// len(out) weight vectors of length len(x) back to back, and out[m]
// receives dot(flatW[m·q:(m+1)·q], x). Each output has its own
// accumulator, so every member score is bit-identical to scalarDot of
// its own weight row.
func scalarDotBatch(flatW, x, out []float64) {
	q := len(x)
	for m := range out {
		row := flatW[m*q : (m+1)*q]
		s := 0.0
		for j := range row {
			s += row[j] * x[j]
		}
		out[m] = s
	}
}

// scalarGapMax is the reference invalidation-gap kernel (engine cache
// certificate, see internal/engine/mutate.go): for c_j = p[j] − rp[j] it
// accumulates gap = Σ w[j]·c_j and extra = max(0, max_j hi[j]·c_j,
// lo[j]·c_j), with the max updated in ascending j order exactly as the
// original loop did.
func scalarGapMax(w, lo, hi, p, rp []float64) (gap, extra float64) {
	for j := range p {
		cj := p[j] - rp[j]
		gap += w[j] * cj
		if v := hi[j] * cj; v > extra {
			extra = v
		}
		if v := lo[j] * cj; v > extra {
			extra = v
		}
	}
	return gap, extra
}

// scalarCrossSafe is the reference cross-polytope vertex check
// (footnote 1, core.SafeConcurrent): the deviation vector is safe iff
// Σ_j |devs[j]| / extent_j ≤ 1, where extent is hi[j] for a positive
// component and |lo[j]| for a negative one; a zero extent against a
// non-zero component is unsafe.
func scalarCrossSafe(lo, hi, devs []float64) bool {
	sum := 0.0
	for j, d := range devs {
		switch {
		case d == 0:
			continue
		case d > 0:
			if hi[j] <= 0 {
				return false
			}
			sum += d / hi[j]
		default:
			if lo[j] >= 0 {
				return false
			}
			sum += d / lo[j] // both negative: positive ratio
		}
	}
	return sum <= 1
}
