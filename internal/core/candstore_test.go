package core

import (
	"math/rand"
	"testing"

	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/topk"
)

// TestCandidateStoreMatchesFullList: the pruned candidate sets derived
// from the memory-optimized store must be exactly the sets Lemmas 2–4
// allow — i.e. identical to those computed from the full candidate list.
func TestCandidateStoreMatchesFullList(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		qlen := 2 + rng.Intn(3)
		cs := fixture.RandCase(rng, 60+rng.Intn(60), 6, qlen, 4)
		for phi := 0; phi <= 2; phi++ {
			ix := lists.NewMemIndex(cs.Tuples, cs.M)
			ta := topk.New(ix, cs.Q, cs.K, topk.BestList)
			ta.Run()

			store := NewCandidateStore(cs.Q.Len(), phi)
			for _, cd := range ta.Candidates() {
				store.Add(cd)
			}
			comp := (&computer{ix: ix, q: ta.Query(), k: cs.K,
				opts: Options{Method: MethodCPT, Phi: phi}, res: ta.Result()}).newDim(ta, nil, new(scratch))
			for jx := range cs.Q.Dims {
				want := ta.Table().Rows(comp.prunedSet(jx, phi))
				got := store.PrunedSet(jx)
				if !sameIDSet(got, want) {
					t.Fatalf("trial %d phi %d dim %d: store %v, full %v",
						trial, phi, jx, idsOf(got), idsOf(want))
				}
			}
			if store.Size() > len(ta.Candidates()) {
				t.Fatalf("trial %d: store retains %d > |C| = %d", trial, store.Size(), len(ta.Candidates()))
			}
			if store.Bytes() != int64(store.Size())*16 {
				t.Fatalf("Bytes() inconsistent with Size()")
			}
		}
	}
}

// sameIDSet compares as sets: the pruning lemmas fix which candidates may
// be examined, not the ordering of the merged list.
func sameIDSet(a, b []topk.Scored) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[int]bool{}
	for _, x := range a {
		m[x.ID] = true
	}
	for _, x := range b {
		if !m[x.ID] {
			return false
		}
	}
	return true
}

func idsOf(s []topk.Scored) []int {
	out := make([]int, len(s))
	for i, x := range s {
		out[i] = x.ID
	}
	return out
}

// TestCandidateStoreBounded: the store's footprint must stay within
// |multi| + qlen·(φ+1) regardless of how many singletons stream in.
func TestCandidateStoreBounded(t *testing.T) {
	store := NewCandidateStore(3, 1)
	for i := 0; i < 1000; i++ {
		store.Add(topk.Scored{ID: i, Score: float64(i), Proj: []float64{float64(i), 0, 0}, NZMask: 1})
	}
	if store.Size() != 2 { // φ+1 singletons of dimension 0
		t.Fatalf("store size %d, want 2", store.Size())
	}
	set := store.PrunedSet(0)
	// The two highest-coordinate singletons must have survived.
	if !containsID(set, 999) || !containsID(set, 998) {
		t.Fatalf("top singletons missing: %v", idsOf(set))
	}
	// For another dimension they are C0 material, ranked by score.
	set1 := store.PrunedSet(1)
	if !containsID(set1, 999) || !containsID(set1, 998) {
		t.Fatalf("C0 representatives missing: %v", idsOf(set1))
	}
}

func containsID(s []topk.Scored, id int) bool {
	for _, x := range s {
		if x.ID == id {
			return true
		}
	}
	return false
}

// TestTrailingBit covers the mask helper.
func TestTrailingBit(t *testing.T) {
	cases := map[uint64]int{0: -1, 1: 0, 2: 1, 8: 3, 0b1010: 1}
	for m, want := range cases {
		if got := trailingBit(m); got != want {
			t.Errorf("trailingBit(%b) = %d, want %d", m, got, want)
		}
	}
}
