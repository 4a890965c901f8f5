package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSparse(t *testing.T) {
	s, err := NewSparse([]Entry{{Dim: 3, Val: 0.5}, {Dim: 1, Val: 0.2}, {Dim: 5, Val: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 {
		t.Fatalf("zero entry not dropped: %v", s)
	}
	if s[0].Dim != 1 || s[1].Dim != 3 {
		t.Fatalf("not sorted: %v", s)
	}
	if _, err := NewSparse([]Entry{{Dim: 1, Val: 0.1}, {Dim: 1, Val: 0.2}}); err == nil {
		t.Fatal("duplicate dimension accepted")
	}
}

func TestSparseGet(t *testing.T) {
	s := MustSparse(Entry{Dim: 2, Val: 0.3}, Entry{Dim: 7, Val: 0.9})
	cases := []struct {
		dim  int
		want float64
	}{{0, 0}, {2, 0.3}, {3, 0}, {7, 0.9}, {8, 0}}
	for _, c := range cases {
		if got := s.Get(c.dim); got != c.want {
			t.Errorf("Get(%d) = %v, want %v", c.dim, got, c.want)
		}
	}
}

func TestSparseDenseRoundTrip(t *testing.T) {
	f := func(raw []float64) bool {
		m := len(raw)
		for i := range raw {
			raw[i] = math.Abs(raw[i])
			if raw[i] > 1 || math.IsNaN(raw[i]) || math.IsInf(raw[i], 0) {
				raw[i] = 0.5
			}
		}
		s := FromDense(raw)
		for i := range raw {
			if s.Get(i) != raw[i] {
				return false
			}
		}
		return s.MaxDim() < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSparseValidate(t *testing.T) {
	if err := MustSparse(Entry{Dim: 0, Val: 0.5}).Validate(); err != nil {
		t.Errorf("valid vector rejected: %v", err)
	}
	bad := Sparse{{Dim: 0, Val: 1.5}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range value accepted")
	}
	unsorted := Sparse{{Dim: 3, Val: 0.1}, {Dim: 1, Val: 0.1}}
	if err := unsorted.Validate(); err == nil {
		t.Error("unsorted entries accepted")
	}
}

func TestQueryValidation(t *testing.T) {
	if _, err := NewQuery([]int{1, 2}, []float64{0.5}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewQuery(nil, nil); err == nil {
		t.Error("empty query accepted")
	}
	if _, err := NewQuery([]int{1}, []float64{0}); err == nil {
		t.Error("zero weight accepted")
	}
	if _, err := NewQuery([]int{1, 1}, []float64{0.5, 0.5}); err == nil {
		t.Error("duplicate dims accepted")
	}
	q, err := NewQuery([]int{5, 2}, []float64{0.5, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if q.Dims[0] != 2 || q.Weights[0] != 0.7 {
		t.Errorf("not sorted by dim: %+v", q)
	}
}

// TestScoreMatchesDenseDot checks the sparse merge against the dense dot
// product on random vectors.
func TestScoreMatchesDenseDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m := 2 + rng.Intn(20)
		qlen := 1 + rng.Intn(m)
		dims := rng.Perm(m)[:qlen]
		w := make([]float64, qlen)
		for i := range w {
			w[i] = rng.Float64()*0.99 + 0.01
		}
		q := MustQuery(dims, w)

		dense := make([]float64, m)
		for d := 0; d < m; d++ {
			if rng.Float64() < 0.5 {
				dense[d] = rng.Float64()
			}
		}
		s := FromDense(dense)
		qDense := make([]float64, m)
		for i, d := range q.Dims {
			qDense[d] = q.Weights[i]
		}
		want := Dot(qDense, dense)
		if got := q.Score(s); math.Abs(got-want) > 1e-12 {
			t.Fatalf("Score = %v, dense dot = %v", got, want)
		}
		proj := q.Project(s)
		for i, d := range q.Dims {
			if proj[i] != dense[d] {
				t.Fatalf("Project[%d] = %v, want %v", i, proj[i], dense[d])
			}
		}
	}
}

func TestQueryAdjustClamps(t *testing.T) {
	q := MustQuery([]int{0, 1}, []float64{0.8, 0.5})
	if got := q.Adjust(0, 0.5).Weights[0]; got != 1 {
		t.Errorf("Adjust above 1: weight = %v, want 1", got)
	}
	if got := q.Adjust(1, -0.7).Weights[1]; got != 0 {
		t.Errorf("Adjust below 0: weight = %v, want 0", got)
	}
	if got := q.Adjust(0, -0.3).Weights[0]; math.Abs(got-0.5) > 1e-15 {
		t.Errorf("Adjust(-0.3) = %v, want 0.5", got)
	}
	// Original must be untouched.
	if q.Weights[0] != 0.8 {
		t.Errorf("Adjust mutated the receiver: %v", q.Weights)
	}
}

func TestQueryWeightPos(t *testing.T) {
	q := MustQuery([]int{2, 9}, []float64{0.4, 0.6})
	if q.Weights[q.Pos(2)] != 0.4 || q.Weights[q.Pos(9)] != 0.6 {
		t.Errorf("Weight lookups wrong")
	}
	if q.Pos(2) != 0 || q.Pos(9) != 1 || q.Pos(5) != -1 {
		t.Errorf("Pos lookups wrong")
	}
}

// TestDotMatchesSparseScore pins the identity the TA hot loop relies on:
// scoring via the dense projection (Dot over proj) is bit-identical to
// the sparse merge Score, because the unmatched dimensions contribute
// exact +0.0 terms to a non-negative running sum — and both add their
// terms in ascending dimension order.
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
	mustPanic("DotBatch", func() { DotBatch([]float64{1, 2, 3}, []float64{1, 2}, make([]float64, 2)) })
}
