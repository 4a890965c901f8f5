//go:build linux && !race

package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/lists"
	"repro/internal/topk"
	"repro/internal/vec"
)

// TestRegionPhaseAllocatesNoHeapPerRow: a φ = 2 CPT computation over a
// candidate list of every row allocates the same heap bytes, within
// 64 KiB, whether the list holds 10 000 or 50 000 dense rows: the memo,
// the pruned set, the SLj heaps, the coordinate column and the processed
// flags are arena spans (topk.PageBytes), not heap memory. On the heap
// they took about 25 B per row, 1 MB of difference.
func TestRegionPhaseAllocatesNoHeapPerRow(t *testing.T) {
	const qlen, k = 4, 10
	rng := rand.New(rand.NewSource(38))
	q := vec.MustQuery([]int{0, 1, 2, 3}, []float64{0.9, 0.7, 0.5, 0.3})
	measure := func(n int) (heap uint64, resident int64) {
		tuples := make([]vec.Sparse, n)
		for i := range tuples {
			d := make(vec.Sparse, qlen)
			for j := range d {
				d[j] = vec.Entry{Dim: j, Val: 0.05 + 0.95*rng.Float64()}
			}
			tuples[i] = d
		}
		ta := topk.New(lists.NewMemIndex(tuples, qlen), q, k, topk.BestList)
		if err := ta.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok := ta.Resume(); !ok {
				break // every row is a candidate; Phase 3 pulls nothing
			}
		}
		ta.Ranking()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Compute(context.Background(), ta, Options{Method: MethodCPT, Phi: 2}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		resident = topk.PageBytes() // the computation's spans are idle, not yet handed back
		ta.Release()
		return after.TotalAlloc - before.TotalAlloc, resident
	}
	measure(10_000) // warm the pools
	small, _ := measure(10_000)
	large, resident := measure(50_000)
	if d := int64(large) - int64(small); d >= 64<<10 || d <= -64<<10 {
		t.Fatalf("heap bytes of a computation: %d over 10 000 rows, %d over 50 000", small, large)
	}
	// The table (7 × 8 B per row) and the rank order (4 B) the scan
	// holds, and the computation's memo (4 B), pruned set (4 B),
	// coordinates (8 B), SLj heap (4 B) and processed flags (1 B).
	if want := int64(56+4+21) * 50_000; resident < want {
		t.Fatalf("the arena holds %d B after a computation over 50 000 rows, want at least %d", resident, want)
	}
}
