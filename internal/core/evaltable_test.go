package core

import "testing"

// TestEvalTableModes drives the dense and sparse evaluation memos
// through the same sequence: put/get/contains, per-dimension reset, and
// pool return (the sparse fallback only triggers beyond evalDenseMax
// tuples, which no dataset-backed test reaches).
func TestEvalTableModes(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
	}{
		{"dense", 100},
		{"sparse", evalDenseMax + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc := getScratch(tc.n)
			tab := &sc.eval
			if (tab.sparse != nil) != (tc.n > evalDenseMax) {
				t.Fatalf("mode mismatch for n=%d", tc.n)
			}
			tab.reset()
			if tab.contains(7) {
				t.Fatal("fresh table contains 7")
			}
			p := []float64{0.5, 0.25}
			tab.put(7, p)
			if got, ok := tab.get(7); !ok || &got[0] != &p[0] {
				t.Fatal("get after put failed")
			}
			if !tab.contains(7) || tab.contains(8) {
				t.Fatal("contains wrong")
			}
			tab.reset() // next dimension: everything forgotten
			if tab.contains(7) {
				t.Fatal("reset did not clear")
			}
			tab.put(9, p)
			putScratch(sc)
			if tab.sparse != nil {
				t.Fatal("pool return kept a sparse memo")
			}
			if tc.n <= evalDenseMax && tab.proj[9] != nil {
				t.Fatal("pool return kept projection pointer alive")
			}
		})
	}
}

// TestEvalTableEpochWrap: a wrapped epoch counter must not resurrect
// entries from 4Gi resets ago.
func TestEvalTableEpochWrap(t *testing.T) {
	tab := &evalTable{proj: make([][]float64, 4), mark: make([]uint32, 4)}
	tab.epoch = ^uint32(0) - 1
	tab.reset()
	tab.put(2, []float64{1})
	tab.reset() // wraps to 0 → forced to 1 with marks cleared
	if tab.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", tab.epoch)
	}
	if tab.contains(2) {
		t.Fatal("entry survived epoch wrap")
	}
}
