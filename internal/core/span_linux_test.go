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

// deepComputation runs a φ = 2 CPT computation over a scan of n dense
// rows at qlen 4, resumed to exhaustion first, so that every row is a
// candidate and in every dimension's CL class: the pruned sets keep them
// all. It reports the heap bytes the computation allocated and the most
// arena bytes held at once while it ran — the scan's table and rank
// order included, the scans other tests dropped unreleased not.
func deepComputation(t *testing.T, rng *rand.Rand, n int) (heap uint64, peak int64) {
	t.Helper()
	const qlen, k = 4, 10
	q := vec.MustQuery([]int{0, 1, 2, 3}, []float64{0.9, 0.7, 0.5, 0.3})
	tuples := make([]vec.Sparse, n)
	for i := range tuples {
		d := make(vec.Sparse, qlen)
		for j := range d {
			d[j] = vec.Entry{Dim: j, Val: 0.05 + 0.95*rng.Float64()}
		}
		tuples[i] = d
	}
	flushFinalizers()
	base, _ := topk.HeldBytes()
	ta := topk.New(lists.NewMemIndex(tuples, qlen), q, k, topk.BestList)
	defer ta.Release()
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
	topk.HeldBytes() // a new watermark
	if _, err := Compute(context.Background(), ta, Options{Method: MethodCPT, Phi: 2}); err != nil {
		t.Fatal(err)
	}
	_, peak = topk.HeldBytes()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, peak - base
}

// flushFinalizers collects until the finalizers of everything dropped
// before the call have run: scans that earlier tests dropped unreleased
// then give their arena bytes back now, not while a measurement runs.
// Finalizers run on one goroutine, a batch queued before a later batch,
// so once a sentinel queued after the first collection's batch was taken
// has run, that batch has run too.
func flushFinalizers() {
	for range 2 {
		ran := make(chan struct{})
		runtime.SetFinalizer(&struct{ _ *byte }{}, func(*struct{ _ *byte }) { close(ran) })
		runtime.GC()
		<-ran
	}
}

// TestRegionPhaseAllocatesNoHeapPerRow: a deep computation allocates the
// same heap bytes, within 64 KiB, whether the list holds 10 000 or
// 50 000 rows, and the arena holds at least every per-candidate buffer
// of it while it runs: the memo, the pruned set, the SLj heaps, the
// coordinate column and the processed flags are arena spans, not heap
// memory. On the heap they took about 25 B per row, 1 MB of difference.
func TestRegionPhaseAllocatesNoHeapPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	deepComputation(t, rng, 10_000) // warm the pools
	small, _ := deepComputation(t, rng, 10_000)
	const n = 50_000
	large, peak := deepComputation(t, rng, n)
	if d := int64(large) - int64(small); d >= 64<<10 || d <= -64<<10 {
		t.Fatalf("heap bytes of a computation: %d over 10 000 rows, %d over 50 000", small, large)
	}
	// The table (a 4 B id, an 8 B score, a 1 B mask and 4 × 8 B of
	// coordinates) and the rank order (4 B) the scan holds, and the
	// computation's pruned set (4 B), coordinates (8 B), SLj heaps (4 B),
	// memo and processed flags (a bit each).
	if want := int64(45+4+4+8+4)*n + 2*n/8; peak < want {
		t.Fatalf("the arena held at most %d B during a computation over %d rows, want at least %d", peak, n, want)
	}
}

// TestDeepComputationBytesPerRow: a deep computation over the depth of a
// served φ = 2 miss on ST n = 200 000 (97 391 rows) holds at most 70 B
// of arena memory per row at its peak, table and rank order included:
// 65¼ B of buffers plus the slack of their last pages. With 8 B ids and
// masks, a merge buffer held across Resume, a 4 B memo, byte-wide
// processed flags, a buffer per SLj and power-of-two spans it
// held 96 B.
func TestDeepComputationBytesPerRow(t *testing.T) {
	const n = 97_391
	_, peak := deepComputation(t, rand.New(rand.NewSource(39)), n)
	t.Logf("%d B held at the peak: %.1f B per row", peak, float64(peak)/n)
	if peak > 70*n {
		t.Fatalf("a computation over %d rows held %d B at its peak, %.1f B per row; want at most 70", n, peak, float64(peak)/n)
	}
}
