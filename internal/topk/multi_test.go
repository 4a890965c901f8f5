package topk

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/vec"
)

// weightVariants derives nq same-subspace weight variants of base.
func weightVariants(rng *rand.Rand, base vec.Query, nq int) []vec.Query {
	out := make([]vec.Query, nq)
	for i := range out {
		q := base.Clone()
		for j := range q.Weights {
			q.Weights[j] = 0.05 + 0.95*rng.Float64()
		}
		out[i] = q
	}
	return out
}

// TestMultiMatchesSolo: every member of a fused run gets exactly the
// ranked result a solo TA over the same index would produce — same ids,
// bit-identical scores — across random group sizes, subspaces and both
// probe policies. The solo runs double-check against the naive oracle.
func TestMultiMatchesSolo(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 40; trial++ {
		cs := fixture.RandCase(rng, 30+rng.Intn(120), 3+rng.Intn(8), 2+rng.Intn(3), 1+rng.Intn(8))
		queries := weightVariants(rng, cs.Q, 1+rng.Intn(7))
		for _, policy := range []ProbePolicy{RoundRobin, BestList} {
			ix := lists.NewMemIndex(cs.Tuples, cs.M)
			multi := NewMulti(ix, queries, cs.K, policy)
			mustRun(t, multi)
			for mi, q := range queries {
				solo := New(lists.NewMemIndex(cs.Tuples, cs.M), q, cs.K, policy)
				mustRun(t, solo)
				want := solo.Result()
				got := multi.Result(mi)
				if len(got) != len(want) {
					t.Fatalf("trial %d %v member %d: %d results, want %d", trial, policy, mi, len(got), len(want))
				}
				for r := range want {
					if got[r].ID != want[r].ID || got[r].Score != want[r].Score {
						t.Fatalf("trial %d %v member %d rank %d: got (%d, %v), solo (%d, %v)",
							trial, policy, mi, r, got[r].ID, got[r].Score, want[r].ID, want[r].Score)
					}
					if got[r].NZMask != want[r].NZMask {
						t.Fatalf("trial %d member %d rank %d: NZMask %b vs %b", trial, mi, r, got[r].NZMask, want[r].NZMask)
					}
				}
				naive := TopKNaive(cs.Tuples, q, cs.K)
				for r := range naive {
					if got[r].ID != naive[r].ID || math.Abs(got[r].Score-naive[r].Score) > 1e-12 {
						t.Fatalf("trial %d member %d rank %d: diverges from naive oracle", trial, mi, r)
					}
				}
			}
		}
	}
}

// TestMultiPanics pins the constructor's contract violations.
func TestMultiPanics(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	ix := lists.NewMemIndex(tuples, 2)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("empty group", func() { NewMulti(ix, nil, k, BestList) })
	expectPanic("k<1", func() { NewMulti(ix, []vec.Query{q}, 0, BestList) })
	other := vec.MustQuery([]int{0}, []float64{0.5})
	expectPanic("dims mismatch", func() { NewMulti(ix, []vec.Query{q, other}, k, BestList) })
	expectPanic("Result before Run", func() { NewMulti(ix, []vec.Query{q}, k, BestList).Result(0) })
}
