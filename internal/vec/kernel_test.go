package vec

import (
	"math"
	"math/rand"
	"testing"
)

// randBlock fills a slice with values drawn from the domains the engine
// actually feeds the kernels: weights/coordinates in [0,1] plus the
// boundary values 0 and 1 (never NaN — query validation rejects them).
func randBlock(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(8) {
		case 0:
			out[i] = 0
		case 1:
			out[i] = 1
		default:
			out[i] = rng.Float64()
		}
	}
	return out
}

// TestKernelBitIdentity proves the unrolled kernels bit-identical to the
// scalar references across random blocks of every length around the
// unroll width, including boundary weights.
func TestKernelBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(67) // covers 0, sub-unroll, and multi-block lengths
		a := randBlock(rng, n)
		b := randBlock(rng, n)

		if got, want := dotKernel(a, b), scalarDot(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("dot n=%d: kernel %v (%x) != scalar %v (%x)",
				n, got, math.Float64bits(got), want, math.Float64bits(want))
		}

		alpha := rng.Float64()*2 - 1
		y1 := randBlock(rng, n)
		y2 := append([]float64(nil), y1...)
		axpyKernel(alpha, a, y1)
		scalarAxpy(alpha, a, y2)
		for i := range y1 {
			if math.Float64bits(y1[i]) != math.Float64bits(y2[i]) {
				t.Fatalf("axpy n=%d i=%d: kernel %v != scalar %v", n, i, y1[i], y2[i])
			}
		}

		rows := rng.Intn(19)
		flatW := randBlock(rng, rows*n)
		got := make([]float64, rows)
		want := make([]float64, rows)
		dotBatchKernel(flatW, a, got)
		scalarDotBatch(flatW, a, want)
		for m := range got {
			if math.Float64bits(got[m]) != math.Float64bits(want[m]) {
				t.Fatalf("dotBatch n=%d rows=%d m=%d: kernel %v != scalar %v", n, rows, m, got[m], want[m])
			}
			// Every batch row must equal the member's independent dot.
			if solo := dotKernel(flatW[m*n:(m+1)*n], a); math.Float64bits(got[m]) != math.Float64bits(solo) {
				t.Fatalf("dotBatch row %d: batched %v != solo %v", m, got[m], solo)
			}
		}

		// Gap/cross kernels: lo ≤ 0 ≤ hi like real region extents.
		lo := randBlock(rng, n)
		hi := randBlock(rng, n)
		for i := range lo {
			lo[i] = -lo[i]
		}
		rp := randBlock(rng, n)
		g1, e1 := gapMaxKernel(a, lo, hi, b, rp)
		g2, e2 := scalarGapMax(a, lo, hi, b, rp)
		if math.Float64bits(g1) != math.Float64bits(g2) || math.Float64bits(e1) != math.Float64bits(e2) {
			t.Fatalf("gapMax n=%d: kernel (%v,%v) != scalar (%v,%v)", n, g1, e1, g2, e2)
		}

		devs := make([]float64, n)
		for i := range devs {
			switch rng.Intn(4) {
			case 0:
				devs[i] = 0
			case 1:
				devs[i] = hi[i] * rng.Float64() * 1.5 // sometimes outside
			case 2:
				devs[i] = lo[i] * rng.Float64() * 1.5
			default:
				devs[i] = rng.Float64()*0.2 - 0.1
			}
		}
		if got, want := crossSafeKernel(lo, hi, devs), scalarCrossSafe(lo, hi, devs); got != want {
			t.Fatalf("crossSafe n=%d: kernel %v != scalar %v (lo=%v hi=%v devs=%v)", n, got, want, lo, hi, devs)
		}
	}
}

// TestDotMatchesSparseScore pins the identity the TA hot loop relies on:
// scoring via the dense projection (Dot over proj) is bit-identical to
// the sparse merge Score, because the unmatched dimensions contribute
// exact +0.0 terms to a non-negative running sum.
func TestDotMatchesSparseScore(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 500; trial++ {
		m := 2 + rng.Intn(40)
		var entries []Entry
		for d := 0; d < m; d++ {
			if rng.Float64() < 0.5 {
				entries = append(entries, Entry{Dim: d, Val: rng.Float64() + 1e-9})
			}
		}
		sp, err := NewSparse(entries)
		if err != nil {
			t.Fatal(err)
		}
		qlen := 1 + rng.Intn(m)
		dims := rng.Perm(m)[:qlen]
		weights := make([]float64, qlen)
		for i := range weights {
			weights[i] = rng.Float64() // includes near-0; 0 itself is engine-legal
		}
		if rng.Intn(4) == 0 {
			weights[rng.Intn(qlen)] = 0
		}
		type qt struct {
			d int
			w float64
		}
		q := Query{Dims: make([]int, qlen), Weights: make([]float64, qlen)}
		pairs := make([]qt, qlen)
		for i := range dims {
			pairs[i] = qt{dims[i], weights[i]}
		}
		for i := range pairs {
			for j := i + 1; j < len(pairs); j++ {
				if pairs[j].d < pairs[i].d {
					pairs[i], pairs[j] = pairs[j], pairs[i]
				}
			}
		}
		for i, p := range pairs {
			q.Dims[i], q.Weights[i] = p.d, p.w
		}
		proj := q.Project(sp)
		merge := q.Score(sp)
		dense := Dot(q.Weights, proj)
		if math.Float64bits(merge) != math.Float64bits(dense) {
			t.Fatalf("score mismatch: merge %v (%x) dense %v (%x) q=%v t=%v",
				merge, math.Float64bits(merge), dense, math.Float64bits(dense), q, sp)
		}
	}
}

func TestKernelAPIPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic on length mismatch", name)
			}
		}()
		f()
	}
	mustPanic("Dot", func() { Dot([]float64{1}, []float64{1, 2}) })
	mustPanic("Axpy", func() { Axpy(1, []float64{1}, []float64{1, 2}) })
	mustPanic("DotBatch", func() { DotBatch([]float64{1, 2, 3}, []float64{1, 2}, make([]float64, 2)) })
	mustPanic("GapMax", func() { GapMax([]float64{1}, []float64{1}, []float64{1}, []float64{1, 2}, []float64{1, 2}) })
	mustPanic("CrossSafe", func() { CrossSafe([]float64{1}, []float64{1, 2}, []float64{1, 2}) })
}
