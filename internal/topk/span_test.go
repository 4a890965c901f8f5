package topk

import (
	"math"
	"testing"
)

// TestGrowSpanKeepsElements: GrowSpan extends within the capacity it
// has, moves to a larger span with the elements kept when it must, and
// resizes without copying when handed an empty slice; every span is a
// power of two of at least a page.
func TestGrowSpanKeepsElements(t *testing.T) {
	var s []int32
	for n := 1; n <= 3*pageRows; n = n*3 + 1 {
		old := len(s)
		s = GrowSpan(s, n)
		if len(s) != n || 4*cap(s) != spanBytes(spanClass(4*n)) {
			t.Fatalf("GrowSpan to %d: len %d cap %d", n, len(s), cap(s))
		}
		for i := range old {
			if s[i] != int32(i) {
				t.Fatalf("GrowSpan to %d: element %d reads %d", n, i, s[i])
			}
		}
		for i := old; i < n; i++ {
			s[i] = int32(i)
		}
	}
	r := GrowSpan(s[:0], 5*pageRows)
	if len(r) != 5*pageRows || 4*cap(r) != spanBytes(spanClass(4*len(r))) {
		t.Fatalf("resize to %d: len %d cap %d", 5*pageRows, len(r), cap(r))
	}
	ReleaseSpan(r)
	ReleaseSpan([]float64(nil))
	for _, c := range []struct{ n, class int }{{1, 0}, {pageBytes, 0}, {pageBytes + 1, 1}, {4 * pageBytes, 2}, {4*pageBytes + 1, 3}} {
		if got := spanClass(c.n); got != c.class {
			t.Errorf("spanClass(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

// TestReleasedSpanIsPoisoned: under PoisonScratch (TestMain) a span
// handed back reads NaN, -1 or true in every element, so whatever still
// aliases it after the hand-back reads garbage the bit-identity suites
// catch; and a heap slice passed as a span is refused.
func TestReleasedSpanIsPoisoned(t *testing.T) {
	f := GrowSpan([]float64(nil), 10)
	i := GrowSpan([]int32(nil), 10)
	u := GrowSpan([]uint32(nil), 10)
	b := GrowSpan([]bool(nil), 10)
	for k := range 10 {
		f[k], i[k], u[k], b[k] = 1, 1, 1, false
	}
	ff, ii, uu, bb := f[:cap(f)], i[:cap(i)], u[:cap(u)], b[:cap(b)]
	ReleaseSpan(f)
	ReleaseSpan(i)
	ReleaseSpan(u)
	ReleaseSpan(b)
	for k := range ff {
		if !math.IsNaN(ff[k]) {
			t.Fatalf("released float64 span reads %v at %d", ff[k], k)
		}
	}
	for k := range ii {
		if ii[k] != -1 || uu[k] != math.MaxUint32 {
			t.Fatalf("released int32/uint32 spans read %d/%d at %d", ii[k], uu[k], k)
		}
	}
	for k := range bb {
		if !bb[k] {
			t.Fatalf("released bool span reads false at %d", k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("releasing a heap slice did not panic")
		}
	}()
	ReleaseSpan(make([]int32, 10))
}
