package lists_test

import (
	"context"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/topk"
)

// TestDiskIndexConcurrentQueries runs many TA scans at once over one
// disk-backed index with a small buffer pool, through per-query stats
// views. Every run must reproduce the solo result, the per-query random
// read counts must be exact, and the run must be race-clean (the pool's
// LRU is the shared mutable structure under test).
func TestDiskIndexConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	cs := fixture.RandCase(rng, 250, 6, 3, 8)
	dir := t.TempDir()
	tp, lp := filepath.Join(dir, "t.dat"), filepath.Join(dir, "l.dat")
	if err := lists.SaveDataset(tp, lp, cs.Tuples, cs.M); err != nil {
		t.Fatal(err)
	}
	ix, err := lists.OpenDiskIndex(tp, lp, 16) // tiny pool: force eviction churn
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()

	solo := func() ([]topk.Scored, int64) {
		st := ix.Stats().Child()
		view := ix.WithStats(st)
		ta := topk.New(view, cs.Q, cs.K, topk.BestList)
		if err := ta.RunContext(context.Background()); err != nil {
			t.Error(err)
		}
		_, rnd, _ := st.Snapshot()
		return ta.Result(), rnd
	}
	wantRes, wantRnd := solo()
	if wantRnd == 0 {
		t.Fatal("solo run charged no random reads")
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 10; r++ {
				res, rnd := solo()
				if !reflect.DeepEqual(res, wantRes) {
					t.Errorf("concurrent result diverged")
				}
				if rnd != wantRnd {
					t.Errorf("per-query random reads %d, want %d", rnd, wantRnd)
				}
			}
		}()
	}
	wg.Wait()
}
