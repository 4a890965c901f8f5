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

// TestMultiMemberViewValid: each member view is a valid terminated TA
// state for its query — result ∪ candidates is exactly the shared
// scan's encounter set, every entry scored bit-exactly with the
// member's own weights, candidates ranked, and the k-th result score at
// or above the member's threshold at the final scan position (the TA
// termination certificate region computation relies on).
func TestMultiMemberViewValid(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 25; trial++ {
		cs := fixture.RandCase(rng, 40+rng.Intn(80), 4+rng.Intn(6), 2+rng.Intn(3), 2+rng.Intn(5))
		queries := weightVariants(rng, cs.Q, 2+rng.Intn(5))
		ix := lists.NewMemIndex(cs.Tuples, cs.M)
		multi := NewMulti(ix, queries, cs.K, BestList)
		mustRun(t, multi)
		encIDs := map[int]bool{}
		for p := 0; p < multi.rows.Len(); p++ {
			encIDs[multi.rows.ID(int32(p))] = true
		}
		for mi, q := range queries {
			mr := multi.Member(mi)
			all := append(append([]Scored(nil), mr.Result()...), mr.Candidates()...)
			if len(all) != len(encIDs) {
				t.Fatalf("trial %d member %d: view holds %d tuples, scan encountered %d", trial, mi, len(all), len(encIDs))
			}
			for _, sc := range all {
				if !encIDs[sc.ID] {
					t.Fatalf("trial %d member %d: tuple %d not in the shared encounter set", trial, mi, sc.ID)
				}
				if want := vec.Dot(q.Weights, sc.Proj); sc.Score != want {
					t.Fatalf("trial %d member %d tuple %d: score %v, want member-weight %v", trial, mi, sc.ID, sc.Score, want)
				}
			}
			cands := mr.Candidates()
			for i := 1; i < len(cands); i++ {
				if cands[i].Score > cands[i-1].Score {
					t.Fatalf("trial %d member %d: candidates not ranked at %d", trial, mi, i)
				}
			}
			if res := mr.Result(); len(res) == cs.K {
				if thr := mr.ThresholdScore(); res[cs.K-1].Score < thr {
					t.Fatalf("trial %d member %d: kth score %v below final threshold %v", trial, mi, res[cs.K-1].Score, thr)
				}
			}
		}
	}
}

// TestMultiMemberResume: a member view's Resume pulls score with the
// member's weights and extend only that view — siblings and the shared
// run stay untouched.
func TestMultiMemberResume(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	cs := fixture.RandCase(rng, 200, 6, 3, 3)
	queries := weightVariants(rng, cs.Q, 3)
	ix := lists.NewMemIndex(cs.Tuples, cs.M)
	multi := NewMulti(ix, queries, cs.K, BestList)
	mustRun(t, multi)

	a, b := multi.Member(0), multi.Member(1)
	lenA, lenB := len(a.Candidates()), len(b.Candidates())
	for i := 0; i < 5; i++ {
		p, ok := a.Resume()
		if !ok {
			break
		}
		sc := a.Table().Rows([]int32{p})[0]
		if want := vec.Dot(queries[0].Weights, sc.Proj); sc.Score != want {
			t.Fatalf("resume pull %d scored %v, want member-weight score %v", i, sc.Score, want)
		}
	}
	if len(b.Candidates()) != lenB {
		t.Fatal("resuming member 0 grew member 1's candidate list")
	}
	// A view taken afterwards starts from the fused run, not from member 0.
	if c := multi.Member(0); len(c.Candidates()) != lenA {
		t.Fatal("resuming member 0 grew the fused run")
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
	expectPanic("Member before Run", func() { NewMulti(ix, []vec.Query{q}, k, BestList).Member(0) })
}
