//go:build linux && !race

package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/topk"
	"repro/internal/vec"
)

// settleFinalizers collects until the finalizers of everything dropped
// before the call have run: scans that earlier tests dropped unreleased
// give their arena bytes back now, not while a measurement runs.
// Finalizers run on one goroutine, a batch queued before a later batch,
// so once a sentinel queued after the first collection's batch was taken
// has run, that batch has run too.
func settleFinalizers() {
	for range 2 {
		ran := make(chan struct{})
		runtime.SetFinalizer(&struct{ _ *byte }{}, func(*struct{ _ *byte }) { close(ran) })
		runtime.GC()
		<-ran
	}
}

// TestEnginePathsReturnArenaMemory: every engine path that scans hands
// back all the arena memory its scan and its region computation took —
// the encountered set, the table pages, the rank order, the radix keys
// and core's buffers. A concurrent burst of analyses (every method at
// φ 0 and 2), ranked queries (metered, traced and a fused batch), a
// shard's imposed-result analysis and an analysis cancelled mid-scan
// must leave topk.HeldBytes where it started. Collections are off during
// the burst, so no finalizer takes back a scan a path forgot to release.
func TestEnginePathsReturnArenaMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(4401))
	cs := fixture.RandCase(rng, 4000, 8, 4, 10)
	ix := lists.NewMemIndex(cs.Tuples, cs.M)
	eng := New(ix, Config{})
	ctx := context.Background()
	imposed, _, err := eng.TopKMetered(ctx, cs.Q, cs.K)
	if err != nil {
		t.Fatal(err)
	}
	cancelCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	var left atomic.Int64
	left.Store(50)
	cancelling := New(&cancelIndex{Index: ix, cancel: cancel, left: &left}, Config{CacheEntries: -1})

	variants := make([]TopKItem, 4)
	for i := range variants {
		w := make([]float64, cs.Q.Len())
		for j := range w {
			w[j] = 0.05 + 0.9*rng.Float64()
		}
		variants[i] = TopKItem{Q: vec.Query{Dims: cs.Q.Dims, Weights: w}, K: cs.K}
	}
	calls := []func() error{
		func() error { _, _, err := eng.TopKMetered(ctx, variants[0].Q, cs.K); return err },
		func() error { _, _, err := eng.TopKTrace(ctx, cs.Q, cs.K); return err },
		func() error {
			for _, r := range eng.TopKBatch(ctx, variants) {
				if r.Err != nil {
					return r.Err
				}
			}
			return nil
		},
		func() error {
			_, _, err := eng.AnalyzeImposed(ctx, cs.Q, cs.K, 0, imposed, Options{Options: core.Options{Method: core.MethodCPT, Phi: 2}})
			return err
		},
		func() error {
			if _, err := cancelling.Analyze(cancelCtx, cs.Q, cs.K, Options{Options: core.Options{Phi: 2}}); !errors.Is(err, context.Canceled) {
				return errors.New("the cancelled analysis did not fail with context.Canceled")
			}
			return nil
		},
	}
	for _, m := range core.Methods {
		for _, phi := range []int{0, 2} {
			opts := Options{Options: core.Options{Method: m, Phi: phi}, NoCache: true}
			calls = append(calls, func() error { _, err := eng.Analyze(ctx, cs.Q, cs.K, opts); return err })
		}
	}

	settleFinalizers()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	before, _ := topk.HeldBytes()
	errs := make([]error, len(calls))
	var wg sync.WaitGroup
	for i, call := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = call()
		}()
	}
	wg.Wait()
	after, peak := topk.HeldBytes()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if peak <= before {
		t.Fatalf("the burst held no arena memory (peak %d B, %d B before)", peak, before)
	}
	if after != before {
		t.Fatalf("%d B of arena memory held after the burst, %d B before (peak %d B)", after, before, peak)
	}
}
