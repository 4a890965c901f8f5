package topk

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/vec"
)

// TestNRAMatchesNaive: NRA must return the exact ranked top-k (ids in
// order) on random general-position data.
func TestNRAMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 40; trial++ {
		cs := fixture.RandCase(rng, 20+rng.Intn(80), 3+rng.Intn(6), 2+rng.Intn(3), 1+rng.Intn(8))
		want := TopKNaive(cs.Tuples, cs.Q, cs.K)
		ix := lists.NewMemIndex(cs.Tuples, cs.M)
		nra := NewNRA(ix, cs.Q, cs.K)
		nra.Run()
		got := nra.Result()
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("trial %d rank %d: id %d, want %d", trial, i, got[i].ID, want[i].ID)
			}
			// The certainty interval must bracket the true score.
			if want[i].Score < got[i].Lower-1e-9 || want[i].Score > got[i].Upper+1e-9 {
				t.Fatalf("trial %d rank %d: true score %v outside [%v, %v]",
					trial, i, want[i].Score, got[i].Lower, got[i].Upper)
			}
		}
	}
}

// TestNRARunningExample: on Fig. 1, NRA finds [d2, d1] like TA.
func TestNRARunningExample(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	ix := lists.NewMemIndex(tuples, 2)
	nra := NewNRA(ix, q, k)
	nra.Run()
	got := nra.Result()
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 0 {
		t.Fatalf("NRA result %+v, want [d2 d1]", got)
	}
}

// TestNRANoRandomAccess: the defining property — NRA must not fetch a
// single tuple by random access.
func TestNRANoRandomAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	cs := fixture.RandCase(rng, 100, 5, 3, 5)
	ix := lists.NewMemIndex(cs.Tuples, cs.M)
	nra := NewNRA(ix, cs.Q, cs.K)
	nra.Run()
	if _, rnd, _ := ix.Stats().Snapshot(); rnd != 0 {
		t.Fatalf("NRA performed %d random reads", rnd)
	}
	if nra.SortedAccesses() == 0 {
		t.Fatal("no sorted accesses recorded")
	}
}

// TestNRAReadsDeeperThanTA quantifies why the paper prefers random-access
// TA: on sparse text-like data NRA's sorted-access depth must be at
// least TA's (usually far more), since its upper bounds deflate slowly.
func TestNRAReadsDeeperThanTA(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	deeper := 0
	for trial := 0; trial < 10; trial++ {
		cs := fixture.RandCase(rng, 150, 6, 3, 5)
		ixTA := lists.NewMemIndex(cs.Tuples, cs.M)
		ta := New(ixTA, cs.Q, cs.K, RoundRobin)
		mustRun(t, ta)

		ixNRA := lists.NewMemIndex(cs.Tuples, cs.M)
		nra := NewNRA(ixNRA, cs.Q, cs.K)
		nra.Run()

		if nra.SortedAccesses() < ta.SortedAccesses() {
			t.Errorf("trial %d: NRA read %d postings, TA %d — NRA cannot stop earlier than TA",
				trial, nra.SortedAccesses(), ta.SortedAccesses())
		}
		if nra.SortedAccesses() > ta.SortedAccesses() {
			deeper++
		}
	}
	if deeper == 0 {
		t.Error("NRA never read deeper than TA across 10 sparse workloads; comparator not meaningful")
	}
}

// TestNRAExhaustion: k equal to the dataset size forces full consumption
// and exact bounds.
func TestNRAExhaustion(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	cs := fixture.RandCase(rng, 25, 4, 2, 25)
	want := TopKNaive(cs.Tuples, cs.Q, 25)
	ix := lists.NewMemIndex(cs.Tuples, cs.M)
	nra := NewNRA(ix, cs.Q, 25)
	nra.Run()
	got := nra.Result()
	if len(got) != len(want) {
		t.Fatalf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("rank %d: id %d, want %d", i, got[i].ID, want[i].ID)
		}
		if math.Abs(got[i].Lower-want[i].Score) > 1e-9 || math.Abs(got[i].Upper-want[i].Score) > 1e-9 {
			t.Fatalf("rank %d: bounds [%v,%v] not exact (%v)", i, got[i].Lower, got[i].Upper, want[i].Score)
		}
	}
}

// TestNRAResultBeforeRun covers the guard.
func TestNRAResultBeforeRun(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	ix := lists.NewMemIndex(tuples, 2)
	nra := NewNRA(ix, q, k)
	defer func() {
		if recover() == nil {
			t.Fatal("Result before Run did not panic")
		}
	}()
	nra.Result()
}

// TestNRAExactTiesTermination pins the tie-handling semantics: with
// scores that are exactly equal (binary fractions, no float slack) the
// certainty conditions — all strict inequalities — must still
// terminate, and the outcome must be deterministic.
//
// The dataset scores d0 = d1 = d2 = 0.5 exactly and d3 = 0.0625:
//
//	L0: d0(0.75) d2(0.5) d1(0.25) d3(0.125)    L1: d1(0.75) d2(0.5) d0(0.25)
//
// Two behaviors are pinned. (1) A fully-resolved tuple may win rank k
// over tied outsiders whose upper bound merely EQUALS the k-th lower
// bound: at k=1, d2 resolves to exactly 0.5 while d0/d1 can no longer
// exceed it, so NRA certifies [d2] without exhausting the lists — the
// deterministic greedy outcome of strict-inequality certainty. (2) Ties
// that survive into the ranking break by ascending id, like TA: k=2
// returns [d0 d1], k=3 [d0 d1 d2], and k=4 — which forces full
// exhaustion, collapsing every bound to its exact score — [d0 d1 d2 d3].
func TestNRAExactTiesTermination(t *testing.T) {
	tuples := []vec.Sparse{
		vec.MustSparse(vec.Entry{Dim: 0, Val: 0.75}, vec.Entry{Dim: 1, Val: 0.25}),
		vec.MustSparse(vec.Entry{Dim: 0, Val: 0.25}, vec.Entry{Dim: 1, Val: 0.75}),
		vec.MustSparse(vec.Entry{Dim: 0, Val: 0.5}, vec.Entry{Dim: 1, Val: 0.5}),
		vec.MustSparse(vec.Entry{Dim: 0, Val: 0.125}),
	}
	q := vec.MustQuery([]int{0, 1}, []float64{0.5, 0.5})
	cases := []struct {
		k        int
		wantIDs  []int
		accesses int // pinned sorted-access count at termination
	}{
		{1, []int{2}, 4},
		{2, []int{0, 1}, 6},
		{3, []int{0, 1, 2}, 6},
		{4, []int{0, 1, 2, 3}, 7}, // exhausted lists: all bounds exact
	}
	for _, tc := range cases {
		// Two runs: the result must be deterministic despite the internal
		// map iteration.
		var prev []NRAResult
		for run := 0; run < 2; run++ {
			nra := NewNRA(lists.NewMemIndex(tuples, 2), q, tc.k)
			done := make(chan struct{})
			go func() { nra.Run(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("k=%d: NRA did not terminate on exact ties", tc.k)
			}
			got := nra.Result()
			if len(got) != len(tc.wantIDs) {
				t.Fatalf("k=%d: %d results, want %d", tc.k, len(got), len(tc.wantIDs))
			}
			for i, r := range got {
				if r.ID != tc.wantIDs[i] {
					t.Fatalf("k=%d rank %d: id %d, want %d", tc.k, i, r.ID, tc.wantIDs[i])
				}
			}
			if n := nra.SortedAccesses(); n != tc.accesses {
				t.Fatalf("k=%d: %d sorted accesses, want %d", tc.k, n, tc.accesses)
			}
			if run == 1 {
				for i := range got {
					if got[i] != prev[i] {
						t.Fatalf("k=%d rank %d: nondeterministic result %+v vs %+v", tc.k, i, got[i], prev[i])
					}
				}
			}
			prev = got
		}
		// Tied members that made the ranking carry exact, equal bounds.
		nra := NewNRA(lists.NewMemIndex(tuples, 2), q, tc.k)
		nra.Run()
		for i, r := range nra.Result() {
			want := 0.5
			if r.ID == 3 {
				want = 0.0625
			}
			if r.Lower != want || r.Upper != want {
				t.Fatalf("k=%d rank %d (id %d): bounds [%v, %v], want exact %v", tc.k, i, r.ID, r.Lower, r.Upper, want)
			}
		}
	}
}
