package vec

// Unrolled portable kernels — the one backend every build runs. The
// 4-wide unrolling exists to amortize loop overhead and let the compiler
// elide bounds checks on the full-capacity subslices; every accumulation
// stays a single running sum in ascending index order, so the results
// are bit-identical to the scalar references in kernel_ref.go (asserted
// by TestKernelBitIdentity). Whatever replaces these loops must keep
// that contract (i.e. no reassociating horizontal adds).

func dotKernel(a, b []float64) float64 {
	s := 0.0
	i, n := 0, len(a)
	for ; i+4 <= n; i += 4 {
		aa := a[i : i+4 : i+4]
		bb := b[i : i+4 : i+4]
		s += aa[0] * bb[0]
		s += aa[1] * bb[1]
		s += aa[2] * bb[2]
		s += aa[3] * bb[3]
	}
	for ; i < n; i++ {
		s += a[i] * b[i]
	}
	return s
}

func axpyKernel(alpha float64, x, y []float64) {
	i, n := 0, len(x)
	for ; i+4 <= n; i += 4 {
		xx := x[i : i+4 : i+4]
		yy := y[i : i+4 : i+4]
		yy[0] += alpha * xx[0]
		yy[1] += alpha * xx[1]
		yy[2] += alpha * xx[2]
		yy[3] += alpha * xx[3]
	}
	for ; i < n; i++ {
		y[i] += alpha * x[i]
	}
}

// dotBatchKernel processes four weight rows per pass so each loaded x[j]
// feeds four independent accumulators (one per output — accumulators are
// never split within an output, preserving bit-identity per member).
func dotBatchKernel(flatW, x, out []float64) {
	q := len(x)
	m, nm := 0, len(out)
	for ; m+4 <= nm; m += 4 {
		base := m * q
		w0 := flatW[base+0*q : base+1*q : base+1*q]
		w1 := flatW[base+1*q : base+2*q : base+2*q]
		w2 := flatW[base+2*q : base+3*q : base+3*q]
		w3 := flatW[base+3*q : base+4*q : base+4*q]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += w0[j] * xj
			s1 += w1[j] * xj
			s2 += w2[j] * xj
			s3 += w3[j] * xj
		}
		out[m+0] = s0
		out[m+1] = s1
		out[m+2] = s2
		out[m+3] = s3
	}
	for ; m < nm; m++ {
		out[m] = dotKernel(flatW[m*q:(m+1)*q], x)
	}
}

// gapMaxKernel unrolls the gap accumulation; the running max is updated
// strictly in ascending j order within each block, so it is the same
// sequence of comparisons as the scalar reference.
func gapMaxKernel(w, lo, hi, p, rp []float64) (gap, extra float64) {
	i, n := 0, len(p)
	for ; i+4 <= n; i += 4 {
		ww := w[i : i+4 : i+4]
		ll := lo[i : i+4 : i+4]
		hh := hi[i : i+4 : i+4]
		pp := p[i : i+4 : i+4]
		rr := rp[i : i+4 : i+4]
		for j := 0; j < 4; j++ {
			cj := pp[j] - rr[j]
			gap += ww[j] * cj
			if v := hh[j] * cj; v > extra {
				extra = v
			}
			if v := ll[j] * cj; v > extra {
				extra = v
			}
		}
	}
	for ; i < n; i++ {
		cj := p[i] - rp[i]
		gap += w[i] * cj
		if v := hi[i] * cj; v > extra {
			extra = v
		}
		if v := lo[i] * cj; v > extra {
			extra = v
		}
	}
	return gap, extra
}

// crossSafeKernel is branch-heavy (early unsafe exits), so unrolling
// buys nothing; the flat lo/hi layout is the optimization here.
func crossSafeKernel(lo, hi, devs []float64) bool {
	return scalarCrossSafe(lo, hi, devs)
}
