package topk

import (
	"math"
	"testing"
)

// TestGrowSpanKeepsElements: GrowSpan extends within the capacity it
// has, moves to a larger span with the elements kept when it must —
// growing by a quarter at least — and resizes to what it is asked for
// when handed an empty slice; a span is a page, or a buffer of whole
// bufAlign units larger than one.
func TestGrowSpanKeepsElements(t *testing.T) {
	var s []int32
	for n := 1; n <= 3*pageRows; n = n*3 + 1 {
		old, oldCap := len(s), cap(s)
		s = GrowSpan(s, n)
		want := oldCap
		if n > oldCap {
			want = spanBytes(4*max(n, old+old/4)) / 4
		}
		if len(s) != n || cap(s) != want {
			t.Fatalf("GrowSpan to %d: len %d cap %d, want cap %d", n, len(s), cap(s), want)
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
	if len(r) != 5*pageRows || 4*cap(r) != 20*pageRows {
		t.Fatalf("resize to %d: len %d cap %d", 5*pageRows, len(r), cap(r))
	}
	ReleaseSpan(r)
	ReleaseSpan([]float64(nil))
	for _, c := range []struct{ n, span int }{{1, pageBytes}, {pageBytes, pageBytes},
		{pageBytes + 1, pageBytes + bufAlign}, {3*pageBytes + 5000, 3*pageBytes + 2*bufAlign}} {
		if got := spanBytes(c.n); got != c.span {
			t.Errorf("spanBytes(%d) = %d, want %d", c.n, got, c.span)
		}
	}
}

// TestReleasedSpanIsPoisoned: under PoisonScratch (TestMain) a span
// handed back reads NaN or all ones in every element, so whatever still
// aliases it after the hand-back reads garbage the bit-identity suites
// catch; and a heap slice passed as a span is refused.
func TestReleasedSpanIsPoisoned(t *testing.T) {
	f := GrowSpan([]float64(nil), 10)
	i := GrowSpan([]int32(nil), 10)
	u := GrowSpan([]uint64(nil), 10)
	for k := range 10 {
		f[k], i[k], u[k] = 1, 1, 1
	}
	ff, ii, uu := f[:cap(f)], i[:cap(i)], u[:cap(u)]
	ReleaseSpan(f)
	ReleaseSpan(i)
	ReleaseSpan(u)
	for k := range ff {
		if !math.IsNaN(ff[k]) {
			t.Fatalf("released float64 span reads %v at %d", ff[k], k)
		}
	}
	for k := range ii {
		if ii[k] != -1 {
			t.Fatalf("released int32 span reads %d at %d", ii[k], k)
		}
	}
	for k := range uu {
		if uu[k] != math.MaxUint64 {
			t.Fatalf("released uint64 span reads %#x at %d", uu[k], k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("releasing a heap slice did not panic")
		}
	}()
	ReleaseSpan(make([]int32, 10))
}
