// Benchmarks: BenchmarkFig times every sweep figure of the paper's
// evaluation (§7) from the internal/exp registry — one op is one full
// query analysis (TA + region computation) at the figure's midpoint;
// cmd/irbench prints the exact counts of the full series, and
// docs/figures.md maps one to the other — plus ablations of the design
// choices and the serving paths grown around the algorithm.
package repro_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/fixture"
	"repro/internal/geom"
	"repro/internal/lists"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/topk"
	"repro/internal/vec"
)

// benchEnv lazily builds the benchmark datasets once per process.
type benchEnv struct {
	once sync.Once
	wsj  *dataset.Dataset
	kb   *dataset.Dataset
	st   *dataset.Dataset
	wsjI *lists.Overlay
	kbI  *lists.Overlay
	stI  *lists.Overlay
}

var env benchEnv

func (e *benchEnv) init() {
	e.once.Do(func() {
		e.wsj = dataset.GenerateWSJ(dataset.WSJConfig{Docs: 3000, Vocab: 4500, MeanTerms: 22, Seed: 101})
		e.kb = dataset.GenerateKB(dataset.KBConfig{Images: 3000, Features: 600, Seed: 102})
		e.st = dataset.GenerateST(dataset.STConfig{N: 20000, Seed: 103})
		e.wsjI = e.wsj.Index()
		e.kbI = e.kb.Index()
		e.stI = e.st.Index()
	})
}

// measureEngine wraps an index in the unified execution layer with the
// answer cache off: figure benchmarks measure the algorithms, so cached
// answers must never stand in for computation.
func measureEngine(ix lists.Index) *engine.Engine {
	return engine.New(ix, engine.Config{MaxConcurrent: -1, CacheEntries: -1})
}

// benchCompute runs one figure point: per op, a fresh TA run plus the
// region computation with the given options.
func benchCompute(b *testing.B, ix lists.Index, queries []vec.Query, k int, opts core.Options) {
	b.Helper()
	b.ReportAllocs()
	eng := measureEngine(ix)
	evaluated := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		out, err := eng.Analyze(context.Background(), q, k, engine.Options{Options: opts})
		if err != nil {
			b.Fatal(err)
		}
		evaluated += out.Metrics.Evaluated
	}
	b.ReportMetric(float64(evaluated)/float64(b.N), "evaluated/op")
}

// BenchmarkFig — the CPU-time panels of the paper's figures: every sweep
// figure of the exp registry at the midpoint of its x axis, one
// sub-benchmark per series (BenchmarkFig/fig10/CPT), over the workload
// the figure's golden counts were taken on.
func BenchmarkFig(b *testing.B) {
	r := exp.NewRunner(exp.Golden)
	for _, f := range exp.Figures {
		if f.Series == nil {
			continue
		}
		b.Run(f.ID, func(b *testing.B) {
			ix, queries, k, base := r.Point(f, f.Xs[len(f.Xs)/2])
			for _, s := range f.Series {
				b.Run(s.Label, func(b *testing.B) {
					benchCompute(b, ix, queries, k, s.Options(base))
				})
			}
		})
	}
}

// BenchmarkTA — the substrate alone: TA cost per query under both
// probing policies.
func BenchmarkTA(b *testing.B) {
	env.init()
	qs := exp.Sample(env.wsj, 16, 4, 50, 208)
	for _, policy := range []topk.ProbePolicy{topk.RoundRobin, topk.BestList} {
		b.Run(policy.String(), func(b *testing.B) {
			b.ReportAllocs()
			accesses := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ta := topk.New(env.wsjI, qs[i%len(qs)], 10, policy)
				if err := ta.RunContext(context.Background()); err != nil {
					b.Fatal(err)
				}
				accesses += ta.SortedAccesses()
			}
			b.ReportMetric(float64(accesses)/float64(b.N), "sorted-accesses/op")
		})
	}
}

// BenchmarkAblationProbing — end-to-end CPT cost under the two TA
// probing policies.
func BenchmarkAblationProbing(b *testing.B) {
	env.init()
	qs := exp.Sample(env.wsj, 16, 4, 50, 209)
	for _, policy := range []topk.ProbePolicy{topk.RoundRobin, topk.BestList} {
		b.Run(policy.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				analyzeWith(b, env.wsjI, qs[i%len(qs)], 10, policy)
			}
		})
	}
}

// analyzeWith is one CPT analysis under the given probing policy, driven
// on topk and core directly: the engine always probes best-list.
func analyzeWith(b *testing.B, ix lists.Index, q vec.Query, k int, policy topk.ProbePolicy) {
	ta := topk.New(ix, q, k, policy)
	defer ta.Release()
	if _, err := core.Compute(context.Background(), ta, core.Options{Method: core.MethodCPT}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSweep — the arrangement sweep over k result lines, stopped
// after the first φ+1 crossings (the φ>0 Phase-1 primitive).
func BenchmarkSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(112))
	lines := make([]geom.Line, 80)
	for i := range lines {
		lines[i] = geom.Line{A: rng.Float64(), B: rng.Float64(), ID: i}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, n := geom.NewSweep(lines, geom.At(1)), 0
		for ; n < 41; n++ {
			if _, ok := sw.Next(); !ok {
				break
			}
		}
		if n == 0 {
			b.Fatal("no crossings")
		}
	}
}

// BenchmarkKthEnvelope — boundary recomputation cost (φ>0 Phase 2).
func BenchmarkKthEnvelope(b *testing.B) {
	rng := rand.New(rand.NewSource(113))
	lines := make([]geom.Line, 60)
	for i := range lines {
		lines[i] = geom.Line{A: rng.Float64(), B: rng.Float64(), ID: i}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := geom.KthEnvelope(lines, 10, geom.At(1))
		if len(env.Lines) == 0 {
			b.Fatal("empty envelope")
		}
	}
}

// BenchmarkServerAnalyzeParallel — the full HTTP /analyze path under
// concurrent load (b.RunParallel drives one goroutine per GOMAXPROCS by
// default). The throughput here is what the server-wide mutex used to
// serialize.
func BenchmarkServerAnalyzeParallel(b *testing.B) {
	env.init()
	// Cache off: this measures the compute path under load; the cached
	// serving rate is BenchmarkCacheAnalyze's subject.
	srv := server.FromEngine(engine.New(env.wsjI, engine.Config{MaxConcurrent: 4 * runtime.NumCPU(), CacheEntries: -1}))
	h := srv.Handler()
	qs := exp.Sample(env.wsj, 16, 4, 50, 216)
	bodies := make([][]byte, len(qs))
	for i, q := range qs {
		raw, err := json.Marshal(server.QueryRequest{Dims: q.Dims, Weights: q.Weights, K: 10, Method: "cpt"})
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = raw
	}
	b.ReportAllocs()
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)) % len(bodies)
			req := httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(bodies[i]))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				// FailNow is not legal off the benchmark goroutine.
				b.Errorf("status %d: %s", rec.Code, rec.Body.Bytes())
				return
			}
		}
	})
}

// BenchmarkRunningExample — end-to-end on the paper's 4-tuple example;
// a floor measurement for per-query overhead.
func BenchmarkRunningExample(b *testing.B) {
	tuples, q, k := fixture.RunningExample()
	ix := lists.NewMemIndex(tuples, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyzeWith(b, ix, q, k, topk.RoundRobin)
	}
}

// BenchmarkCacheAnalyze — the answer cache's headline economics: an
// /analyze-shaped repeat query recomputed from scratch versus served
// from the immutable-region cache (exact-anchor hit, zero index I/O).
func BenchmarkCacheAnalyze(b *testing.B) {
	env.init()
	qs := exp.Sample(env.wsj, 16, 4, 50, 217)
	opts := engine.Options{Options: core.Options{Method: core.MethodCPT, Phi: 1}}
	b.Run("recompute", func(b *testing.B) {
		eng := measureEngine(env.wsjI)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := eng.Analyze(context.Background(), qs[i%len(qs)], 10, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The serving path of a never-repeated query: a cache-enabled engine,
	// fresh weights per op, so every op is a lookup miss, a full
	// computation and an admission (with LRU eviction once the default
	// 1024 entries fill) — bench/'s cold-analyze workload at the engine
	// seam. B/op here is the per-miss garbage the pooled scratch exists
	// to remove; ST n = 20 000 scans deeper than WSJ and is what
	// cold-analyze runs at ten times the size.
	// miss-st-disk is the same ST stream over the shape irserver -wal
	// serves — a DiskIndex under an empty Overlay — where a random access
	// reads a record of the mapped tuple file instead of returning a
	// resident slice, and a list page is a pread into a recycled buffer:
	// its allocs/op and B/op are the real miss path's.
	stQs := exp.Sample(env.st, 16, 4, 50, 219)
	dir := b.TempDir()
	tp, lp := filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")
	if err := env.st.Save(tp, lp); err != nil {
		b.Fatal(err)
	}
	disk, err := lists.OpenDiskIndex(tp, lp)
	if err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	for _, tc := range []struct {
		name string
		ix   lists.Index
		qs   []vec.Query
	}{
		{"miss", env.wsjI, qs},
		{"miss-st", env.stI, stQs},
		{"miss-st-disk", disk, stQs},
	} {
		b.Run(tc.name, func(b *testing.B) {
			eng := engine.New(tc.ix, engine.Config{MaxConcurrent: -1})
			rng := rand.New(rand.NewSource(220))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := tc.qs[i%len(tc.qs)]
				w := make([]float64, base.Len())
				for j := range w {
					w[j] = 0.1 + 0.9*rng.Float64()
				}
				a, err := eng.Analyze(context.Background(), vec.Query{Dims: base.Dims, Weights: w}, 10, opts)
				if err != nil {
					b.Fatal(err)
				}
				if a.Source != engine.SourceComputed {
					b.Fatalf("source %v, want a miss", a.Source)
				}
			}
		})
	}
	b.Run("cached", func(b *testing.B) {
		eng := engine.New(env.wsjI, engine.Config{MaxConcurrent: -1})
		for _, q := range qs { // prime the cache
			if _, err := eng.Analyze(context.Background(), q, 10, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a, err := eng.Analyze(context.Background(), qs[i%len(qs)], 10, opts)
			if err != nil {
				b.Fatal(err)
			}
			if a.Source != engine.SourceCache {
				b.Fatalf("source %v, want cache hit", a.Source)
			}
		}
	})
}

// coldStream is bench/'s cold-analyze client in process: never-repeated
// queries over qlen 4 of the m dimensions, weights U(0.1, 1), every fourth
// one a φ = 2 analysis drawn from its own generator (heavySeed = 11 in
// bench/workload.go), so the costly quarter is the same whatever the
// seed of the light three quarters.
type coldStream struct {
	rng, heavy *rand.Rand
	m, i       int
}

func newColdStream(m int, seed int64, client int) *coldStream {
	clientSeed := func(seed int64) int64 { return seed*1_000_003 + int64(client)*7919 + 1 }
	return &coldStream{rng: rand.New(rand.NewSource(clientSeed(seed))), heavy: rand.New(rand.NewSource(clientSeed(11))), m: m}
}

func (c *coldStream) next() (vec.Query, int) {
	rng, phi := c.rng, 0
	if c.i%4 == 3 {
		rng, phi = c.heavy, 2
	}
	c.i++
	dims := rng.Perm(c.m)[:4]
	slices.Sort(dims)
	weights := make([]float64, 4)
	for j := range weights {
		weights[j] = 0.1 + 0.9*rng.Float64()
	}
	return vec.Query{Dims: dims, Weights: weights}, phi
}

// BenchmarkColdStream — bench/'s cold-analyze workload at the engine
// seam: ST n = 200 000 as irserver -wal serves it (a DiskIndex under an
// empty Overlay, cache on), two closed-loop clients, one op = 200
// requests from each. The streams run on across ops, so no query ever
// repeats. Besides ns/op and B/op it reports:
//   - peak-live-MB, the highest /gc/heap/live:bytes a 1 ms poll saw: the
//     live heap with the deepest φ = 2 query in flight, which under
//     GOGC = 100 is half the heap goal. On Linux it includes neither the
//     candidate tables' pages nor the per-candidate buffers of the rank
//     order and the region phases: topk's page arena keeps those outside
//     the heap;
//   - scan-pages-MB, the highest topk.PageBytes (the ir_scan_pages_bytes
//     gauge) the same poll saw: those pages and spans;
//   - on Linux, rss-anon-MB, the highest RssAnon the same poll saw: the
//     anonymous part of the resident set, the heap and the arena both;
//   - on Linux, rss-file-MB, RssFile at the end of the run: the
//     file-backed part of the resident set, mostly the mapped tuple file
//     (ST's records are dense, 164 B each: 34 MB, nearly all of it
//     resident, as the kernel maps large folios per fault) plus the
//     test binary's text.
//
// The last two are what the server's resident set follows; a list file
// mapped again would show up in the last.
func BenchmarkColdStream(b *testing.B) {
	st := dataset.GenerateST(dataset.STConfig{N: 200000, Seed: 1})
	dir := b.TempDir()
	tp, lp := filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")
	if err := st.Save(tp, lp); err != nil {
		b.Fatal(err)
	}
	disk, err := lists.OpenDiskIndex(tp, lp)
	if err != nil {
		b.Fatal(err)
	}
	defer disk.Close()
	eng := engine.New(disk, engine.Config{})
	streams := []*coldStream{newColdStream(st.M, 1, 0), newColdStream(st.M, 1, 1)}
	st = nil
	// A collection that also hands the generator's freed heap back to the
	// kernel: rss-anon-MB then starts from what the engine holds, not
	// from memory the heap would reuse before it grew.
	debug.FreeOSMemory()

	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var peak uint64
	var peakPages int64
	var peakAnon float64
	status, err := os.Open("/proc/self/status")
	if err == nil {
		defer status.Close()
	}
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				metrics.Read(live)
				peak = max(peak, live[0].Value.Uint64())
				peakPages = max(peakPages, topk.PageBytes())
				if status != nil {
					peakAnon = max(peakAnon, procStatusKB(status, "RssAnon:"))
				}
			}
		}
	}()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, cs := range streams {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < 200; r++ {
					q, phi := cs.next()
					opts := engine.Options{Options: core.Options{Method: core.MethodCPT, Phi: phi}}
					if _, err := eng.Analyze(context.Background(), q, 10, opts); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	close(stop)
	<-polled
	b.ReportMetric(float64(peak)/(1<<20), "peak-live-MB")
	b.ReportMetric(float64(peakPages)/(1<<20), "scan-pages-MB")
	if runtime.GOOS == "linux" {
		b.ReportMetric(peakAnon/(1<<10), "rss-anon-MB")
		b.ReportMetric(obs.ProcStatusBytes("RssFile")/(1<<20), "rss-file-MB")
	}
}

// procStatusBuf is procStatusKB's read buffer; only the poll uses it.
var procStatusBuf [4 << 10]byte

// procStatusKB reads one kB line of an open /proc/self/status ("RssAnon:
// 123 kB"), 0 if it is missing. It is obs.ProcStatusBytes without the
// allocations a 1 ms poll would add to B/op: the file stays open, a
// pread from offset 0 regenerates it into one buffer.
func procStatusKB(f *os.File, key string) float64 {
	n, _ := f.ReadAt(procStatusBuf[:], 0)
	i := bytes.Index(procStatusBuf[:n], []byte(key))
	if i < 0 {
		return 0
	}
	kb := 0
	for _, c := range procStatusBuf[i+len(key) : n] {
		switch {
		case c >= '0' && c <= '9':
			kb = 10*kb + int(c-'0')
		case c == ' ' || c == '\t':
		default:
			return float64(kb)
		}
	}
	return float64(kb)
}

// BenchmarkCacheTopK — region-certified /topk serving: weights nudged
// inside a cached analysis' immutable regions, answered by rescoring
// the cached projections.
func BenchmarkCacheTopK(b *testing.B) {
	env.init()
	qs := exp.Sample(env.wsj, 16, 4, 50, 218)
	eng := engine.New(env.wsjI, engine.Config{MaxConcurrent: -1})
	for _, q := range qs {
		if _, err := eng.Analyze(context.Background(), q, 10, engine.Options{Options: core.Options{Method: core.MethodCPT}}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.TopKMetered(context.Background(), qs[i%len(qs)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchAnalyze — /batchanalyze-shaped execution: a batch of
// repeated-weight queries (the §1 refinement scenario at fleet scale),
// de-duplicated and cache-accelerated, versus the same queries issued
// one by one with the cache off.
func BenchmarkBatchAnalyze(b *testing.B) {
	env.init()
	qs := exp.Sample(env.wsj, 8, 4, 50, 219)
	items := make([]engine.BatchItem, 0, 64)
	for i := 0; i < 64; i++ { // 8 distinct queries × 8 repeats
		items = append(items, engine.BatchItem{
			Q: qs[i%len(qs)], K: 10,
			Opts: engine.Options{Options: core.Options{Method: core.MethodCPT}},
		})
	}
	b.Run("sequential-nocache", func(b *testing.B) {
		eng := measureEngine(env.wsjI)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, it := range items {
				if _, err := eng.Analyze(context.Background(), it.Q, it.K, it.Opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		eng := engine.New(env.wsjI, engine.Config{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, res := range eng.AnalyzeBatch(context.Background(), items) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
	})
}

// BenchmarkBatchTopK — the fused shared-scan economics: 16 ranked
// queries over ONE subspace (the /batchtopk shape) answered by a single
// fused scan scoring all 16 weight vectors per posting block, versus
// sixteen sequential /topk executions, each paying its own sorted
// accesses, tuple fetches and projections.
func BenchmarkBatchTopK(b *testing.B) {
	env.init()
	base := exp.Sample(env.kb, 1, 16, 50, 220)[0]
	rng := rand.New(rand.NewSource(221))
	items := make([]engine.TopKItem, 16)
	for i := range items {
		q := base.Clone()
		for j := range q.Weights {
			q.Weights[j] = 0.05 + 0.95*rng.Float64()
		}
		items[i] = engine.TopKItem{Q: q, K: 10}
	}
	b.Run("sequential", func(b *testing.B) {
		eng := measureEngine(env.kbI)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, it := range items {
				if _, _, err := eng.TopKMetered(context.Background(), it.Q, it.K); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("fused", func(b *testing.B) {
		eng := measureEngine(env.kbI)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, r := range eng.TopKBatch(context.Background(), items) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
}

// mutationBenchSetup builds a private engine (mutations must not leak
// into the shared benchmark datasets) with a primed cache: nq anchors
// over random subspaces, plus one negligible "victim" tuple whose
// updates provably survive every cached certificate.
func mutationBenchSetup(b *testing.B, nq int) (*engine.Engine, []vec.Query, int, int) {
	b.Helper()
	rng := rand.New(rand.NewSource(271))
	cs := fixture.RandCase(rng, 4000, 24, 4, 10)
	eng := engine.New(lists.NewMemIndex(cs.Tuples, cs.M), engine.Config{MaxConcurrent: -1})

	var tinyEntries []vec.Entry
	for d := 0; d < cs.M; d++ {
		tinyEntries = append(tinyEntries, vec.Entry{Dim: d, Val: 0.01})
	}
	res, err := eng.Apply([]engine.Op{{Kind: engine.OpInsert, Tuple: vec.MustSparse(tinyEntries...)}})
	if err != nil {
		b.Fatalf("victim insert: %v", err)
	}
	if res.Results[0].Err != nil {
		b.Fatalf("victim insert op: %v", res.Results[0].Err)
	}
	victim := res.Results[0].ID

	queries := make([]vec.Query, 0, nq)
	for len(queries) < nq {
		dims := rng.Perm(cs.M)[:4]
		weights := make([]float64, 4)
		for i := range weights {
			weights[i] = 0.05 + 0.95*rng.Float64()
		}
		queries = append(queries, vec.MustQuery(dims, weights))
	}
	for _, q := range queries {
		if _, err := eng.Analyze(context.Background(), q, cs.K, engine.Options{Options: core.Options{Method: core.MethodCPT}}); err != nil {
			b.Fatal(err)
		}
	}
	return eng, queries, cs.K, victim
}

// BenchmarkApplyInvalidation — the write path's certificate economics:
// one surviving update checked against a cache of 64 anchors. The
// per-entry check is closed-form arithmetic over cached projections
// (O(k·qlen) flops, zero index I/O), so the whole pass stays in the
// microsecond range.
func BenchmarkApplyInvalidation(b *testing.B) {
	eng, _, _, victim := mutationBenchSetup(b, 64)
	var tinyA, tinyB []vec.Entry
	for d := 0; d < 24; d++ {
		tinyA = append(tinyA, vec.Entry{Dim: d, Val: 0.01})
		tinyB = append(tinyB, vec.Entry{Dim: d, Val: 0.011})
	}
	payload := []vec.Sparse{vec.MustSparse(tinyA...), vec.MustSparse(tinyB...)}
	checked := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.Apply([]engine.Op{{Kind: engine.OpUpdate, ID: victim, Tuple: payload[i%2]}})
		if err != nil {
			b.Fatal(err)
		}
		if res.CacheEvicted != 0 {
			b.Fatalf("victim update evicted %d entries", res.CacheEvicted)
		}
		checked += res.CacheChecked
	}
	b.ReportMetric(float64(checked)/float64(b.N), "entries-checked/op")
}

// BenchmarkCacheTopKAfterUpdate — surviving entries keep their serving
// speed: after an unrelated update, region-certified /topk answers are
// still produced from cached projections at zero index I/O.
func BenchmarkCacheTopKAfterUpdate(b *testing.B) {
	eng, queries, k, victim := mutationBenchSetup(b, 64)
	var tiny []vec.Entry
	for d := 0; d < 24; d++ {
		tiny = append(tiny, vec.Entry{Dim: d, Val: 0.009})
	}
	res, err := eng.Apply([]engine.Op{{Kind: engine.OpUpdate, ID: victim, Tuple: vec.MustSparse(tiny...)}})
	if err != nil || res.CacheEvicted != 0 {
		b.Fatalf("setup update: err %v evicted %d", err, res.CacheEvicted)
	}
	seq0, rnd0, _ := eng.Stats().Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, info, err := eng.TopKMetered(context.Background(), queries[i%len(queries)], k)
		if err != nil {
			b.Fatal(err)
		}
		if info.Source != engine.SourceCacheRegion {
			b.Fatalf("source %v, want region hit from a surviving entry", info.Source)
		}
	}
	b.StopTimer()
	if seq1, rnd1, _ := eng.Stats().Snapshot(); seq1 != seq0 || rnd1 != rnd0 {
		b.Fatalf("surviving serve touched the index: seq %d→%d rand %d→%d", seq0, seq1, rnd0, rnd1)
	}
}
