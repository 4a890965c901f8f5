package main

import (
	"testing"

	"repro/internal/topk"
	"repro/internal/vec"
)

// TestOracleMatchesTopKNaive holds the oracle's column scorer equal to
// topk.TopKNaive, ids and scores bit for bit, on both datasets, before
// and after every kind of write.
func TestOracleMatchesTopKNaive(t *testing.T) {
	for name, w := range smallWorlds() {
		queries := w.pool
		if len(queries) == 0 { // ST: no pool, cold queries
			st := newColdStream(w, 1, 0, 0)
			for len(queries) < 20 {
				queries = append(queries, st.next().q)
			}
		}
		queries = queries[:20]
		o := newOracle(w)
		check := func(when string) {
			t.Helper()
			for _, q := range queries {
				want := topk.TopKNaive(o.tuples, q, topK)
				got := o.topk(q, topK)
				if len(got) != len(want) {
					t.Fatalf("%s %s: %d entries, TopKNaive %d", name, when, len(got), len(want))
				}
				for r := range want {
					if got[r].ID != want[r].ID || got[r].Score != want[r].Score {
						t.Fatalf("%s %s, query %v rank %d: oracle (%d, %v), TopKNaive (%d, %v)",
							name, when, q, r, got[r].ID, got[r].Score, want[r].ID, want[r].Score)
					}
				}
			}
		}
		check("as loaded")
		// Writes aimed at the current top results, so that they change answers.
		top := o.topk(queries[0], topK)
		for _, op := range []writeOp{
			{kind: writeReplace, id: top[0].ID, tuple: vec.Sparse{}},
			{kind: writeDelete, id: top[1].ID},
			{kind: writeInsert, id: len(o.tuples), tuple: w.tuples[top[2].ID]},
		} {
			if err := o.apply(op); err != nil {
				t.Fatal(err)
			}
		}
		if sameIDs(o.topk(queries[0], topK), top) {
			t.Errorf("%s: writes into the top results left them unchanged", name)
		}
		check("after writes")
	}
}
