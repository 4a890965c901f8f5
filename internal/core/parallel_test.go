package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/oracle"
	"repro/internal/topk"
	"repro/internal/vec"
)

// The concurrency a region computation meets is several queries at once
// on one engine: each runs the paper's shared scan on its own goroutine,
// over its own run and scratch, and charges a per-query view of the
// index's meter. The tests below analyze from several goroutines at once
// and hold every answer to a serial run's on the same engine.

// clients is how many goroutines analyze at once.
const clients = 4

// sharedEngines serves cs twice, without a cache so that every request
// computes: over the MemIndex as it is, and over a DiskIndex of the same
// tuples under a write overlay (what irserver -data serves).
func sharedEngines(t *testing.T, cs fixture.Case) map[string]*engine.Engine {
	t.Helper()
	dir := t.TempDir()
	tp, lp := filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")
	if err := lists.SaveDataset(tp, lp, cs.Tuples, cs.M); err != nil {
		t.Fatal(err)
	}
	disk, err := engine.Open(tp, lp, engine.Config{CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	mem := engine.New(lists.NewMemIndex(cs.Tuples, cs.M), engine.Config{ReadOnly: true, CacheEntries: -1})
	return map[string]*engine.Engine{"mem": mem, "disk": disk}
}

// sameAnswer reports whether two analyses agree on the result, the
// regions and every Metrics count (durations aside).
func sameAnswer(a, b *core.Output) bool {
	am, bm := a.Metrics, b.Metrics
	return reflect.DeepEqual(a.Result, b.Result) && reflect.DeepEqual(a.Regions, b.Regions) &&
		am.Evaluated == bm.Evaluated && slices.Equal(am.EvaluatedPerDim, bm.EvaluatedPerDim) &&
		am.Phase3Pulled == bm.Phase3Pulled && am.SeqPages == bm.SeqPages &&
		am.RandReads == bm.RandReads && am.MemBytes == bm.MemBytes
}

// concurrentMatchesSerial analyzes q under every row of opts once,
// serially, on eng, then again from clients goroutines at once, each
// walking the rows from its own offset, and fails on any concurrent
// answer that differs from the serial one. It returns the serial answers.
func concurrentMatchesSerial(t *testing.T, label string, eng *engine.Engine, q vec.Query, k int, opts []core.Options) []*core.Output {
	t.Helper()
	ctx := context.Background()
	serial := make([]*core.Output, len(opts))
	for i, o := range opts {
		a, err := eng.Analyze(ctx, q, k, engine.Options{Options: o})
		if err != nil {
			t.Fatalf("%s %+v: %v", label, o, err)
		}
		serial[i] = a.Output
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range opts {
				i := (c + r) % len(opts)
				a, err := eng.Analyze(ctx, q, k, engine.Options{Options: opts[i]})
				if err != nil {
					t.Errorf("%s %+v, client %d: %v", label, opts[i], c, err)
					return
				}
				if !sameAnswer(a.Output, serial[i]) {
					t.Errorf("%s %+v, client %d: differs from the serial run:\n  got  %+v %+v\n  want %+v %+v",
						label, opts[i], c, a.Regions, a.Metrics, serial[i].Regions, serial[i].Metrics)
				}
			}
		}()
	}
	wg.Wait()
	return serial
}

// TestParallelMatchesSequential: for every method and φ, analyses run
// concurrently on one engine return exactly what a serial run on it
// returns — regions, result, evaluated counts, Phase-3 pulls and I/O —
// on a memory and on a disk index, and the regions match the exact
// oracle.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	trials := 12
	if testing.Short() {
		trials = 5
	}
	var c oracleCheck
	for trial := 0; trial < trials; trial++ {
		n := 8 + rng.Intn(17)
		m := 4 + rng.Intn(5)
		qlen := 2 + rng.Intn(3)
		k := 1 + rng.Intn(5)
		cs := fixture.RandCase(rng, n, m, qlen, k)
		arr := oracle.Arrange(cs.Tuples, cs.Q, cs.K)
		var opts []core.Options
		for phi := 0; phi <= 2; phi++ {
			for _, method := range core.Methods {
				opts = append(opts, core.Options{Method: method, Phi: phi})
			}
		}
		for name, eng := range sharedEngines(t, cs) {
			prefix := fmt.Sprintf("trial=%d %s n=%d qlen=%d k=%d", trial, name, n, qlen, k)
			for i, out := range concurrentMatchesSerial(t, prefix, eng, cs.Q, cs.K, opts) {
				label := func() string { return fmt.Sprintf("%s phi=%d %v", prefix, opts[i].Phi, opts[i].Method) }
				c.match(t, label, cs, out.Regions, arr.Regions(opts[i].Phi, false))
			}
		}
	}
}

// TestParallelVariants covers the remaining option combinations under
// concurrent load: composition-only, iterative φ>0 and the score-biased
// schedule.
func TestParallelVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	variants := []core.Options{
		{Method: core.MethodCPT, CompositionOnly: true},
		{Method: core.MethodPrune, Phi: 2, Iterative: true},
		{Method: core.MethodCPT, Phi: 1, Schedule: core.ScheduleScoreBiased},
	}
	for trial := 0; trial < 6; trial++ {
		cs := fixture.RandCase(rng, 40+rng.Intn(40), 5, 3, 1+rng.Intn(4))
		for name, eng := range sharedEngines(t, cs) {
			concurrentMatchesSerial(t, fmt.Sprintf("trial %d %s", trial, name), eng, cs.Q, cs.K, variants)
		}
	}
}

// TestParallelDegenerate: |R| < k (tuples off the subspace, and k past
// the dataset) and qlen = 1 behave under concurrent load, and a result
// shorter than k answers the full weight domain.
func TestParallelDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	short := fixture.RandCase(rng, 8, 4, 2, 10)
	for id := 0; id < 4; id++ { // four tuples no query list holds: |R| = 8 < k ≤ n
		var off vec.Sparse
		for d := 0; d < short.M; d++ {
			if short.Q.Pos(d) < 0 {
				off = append(off, vec.Entry{Dim: d, Val: 0.1 + 0.2*float64(id)})
			}
		}
		short.Tuples = append(short.Tuples, off)
	}
	pastN := fixture.RandCase(rng, 8, 4, 2, 1)
	pastN.K = 1000
	cases := []struct {
		shape string
		cs    fixture.Case
		short bool // |R| < k: the full weight domain on every side
	}{
		{"k=1", fixture.RandCase(rng, 8, 4, 2, 1), false},
		{"qlen=1", fixture.RandCase(rng, 8, 4, 1, 2), false},
		{"|R|<k<=n", short, true},
		{"k>n", pastN, true},
	}
	opts := []core.Options{{Method: core.MethodCPT}, {Method: core.MethodScan, Phi: 1}}
	for _, c := range cases {
		for name, eng := range sharedEngines(t, c.cs) {
			for _, out := range concurrentMatchesSerial(t, c.shape+" "+name, eng, c.cs.Q, c.cs.K, opts) {
				if len(out.Regions) != c.cs.Q.Len() || (len(out.Result) < c.cs.K) != c.short {
					t.Fatalf("%s %s: %d regions, |R| = %d", c.shape, name, len(out.Regions), len(out.Result))
				}
				for _, reg := range out.Regions {
					if c.short && (reg.Lo != -c.cs.Q.Weights[reg.QPos] || reg.Hi != 1-c.cs.Q.Weights[reg.QPos]) {
						t.Fatalf("%s %s: degenerate region %+v not full-domain", c.shape, name, reg)
					}
				}
			}
		}
	}
}

// TestParallelAcrossPages: the same equality where the scan runs deeper
// than one table page, so Phase 3 pulls into a page the scan half filled
// and on into fresh ones while other queries do the same; `make race`
// runs it with the detector watching the pooled pages.
func TestParallelAcrossPages(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	const n, m = 40_000, 3
	tuples := make([]vec.Sparse, n)
	for i := range tuples {
		tp := make(vec.Sparse, m)
		for d := range tp {
			tp[d] = vec.Entry{Dim: d, Val: 0.05 + 0.95*rng.Float64()}
		}
		tuples[i] = tp
	}
	cs := fixture.Case{Tuples: tuples, M: m, Q: vec.MustQuery([]int{0, 1, 2}, []float64{0.9, 0.5, 0.7}), K: 400}
	ta := topk.New(lists.NewMemIndex(cs.Tuples, cs.M), cs.Q, cs.K, topk.BestList)
	if err := ta.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rows := ta.Table().Len(); rows <= 8192 { // one 64 KiB page of 8-byte values per column
		t.Fatalf("the scan stopped at %d rows, inside its first page", rows)
	}
	ta.Release()
	opts := []core.Options{{Method: core.MethodCPT, Phi: 1}, {Method: core.MethodThres, Phi: 2}}
	for name, eng := range sharedEngines(t, cs) {
		for i, out := range concurrentMatchesSerial(t, name, eng, cs.Q, cs.K, opts) {
			if out.Metrics.Phase3Pulled == 0 {
				t.Errorf("%s %v φ=%d: Phase 3 pulled nothing", name, opts[i].Method, opts[i].Phi)
			}
		}
	}
}
