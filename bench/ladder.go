package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lists"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/topk"
	"repro/internal/vec"
	"repro/internal/wal"
)

// The layer ladder replays the first sp.ladder requests of client 0's
// stream in this process, on one goroutine, and times the same request
// at every seam through the modules' public functions: HTTP handler,
// engine call, TA run, region computation, lists cursor, storage read.
// Each layer is timed in its own call, so a layer's cost is its time
// minus its children's — a subtraction, with nothing inside the program
// instrumented. Counts (accesses, pages, evaluated candidates, log
// bytes) come from the same calls and repeat exactly for one seed.

// poolPages is irserver's default -pool.
const poolPages = 1024

// methodProbes is how many leading requests also run the three other
// region methods (cold-analyze only).
const methodProbes = 60

// ladder is one workload's traced replay.
type ladder struct {
	h   *harness
	res *windowResult
	tr  *tracer
	ctx context.Context

	// per replayed request
	class   []opClass
	source  []engine.Source // how the engine answered (reads)
	respLen []int

	// exact counters, summed over the replay
	sortedAccesses, candidates, evaluated int64
	memBytes                              int64
	phase                                 [3][]float64 // µs per computed analysis
	io                                    storage.IOStats
	methodUS                              map[core.Method][]float64
}

// ladder runs the traced replay for res's workload and fills the
// per-layer metrics the end-to-end window could not.
func (h *harness) ladder(res *windowResult, out *workloadResult) error {
	n := res.sp.ladder
	ld := &ladder{h: h, res: res, tr: newTracer(), ctx: context.Background(), methodUS: map[core.Method][]float64{},
		class: make([]opClass, n), source: make([]engine.Source, n), respLen: make([]int, n)}
	p := out.PerLayer
	var err error
	if res.sp.shards > 0 {
		err = ld.runSharded(p)
	} else {
		err = ld.runSingle(p)
	}
	if err != nil {
		return fmt.Errorf("bench: %s ladder: %w", res.sp.name, err)
	}
	ld.layerMetrics(p)
	for name := range perLayerUnits {
		if _, ok := p[name]; !ok {
			put(p, name, 0, 0)
		}
	}
	return ld.tr.write(filepath.Join(h.outDir, "trace-"+res.sp.name+".jsonl"))
}

// engineConfig mirrors the irserver flags of the workload.
func (ld *ladder) engineConfig() engine.Config {
	var cfg engine.Config
	for _, a := range ld.res.sp.serverArgs {
		if a == "-wal" {
			cfg.WAL = true // -sync batch is the zero policy
		}
	}
	// The replay's own checkpoint is timed separately on the post-run
	// directory; none should fire mid-replay.
	cfg.CheckpointBytes = -1
	return cfg
}

// site is one engine plus the lower layers opened over the same files.
type site struct {
	eng     *engine.Engine
	storage storageSite
	base    int // shard id offset
}

func (s *site) close() {
	s.eng.Close()
	if s.storage.lf != nil {
		s.storage.lf.Close()
		s.storage.tf.Close()
	}
}

// openSite opens dir (a dataset directory or one shard's) as an engine
// and, when the workload never writes, as raw storage files too.
func (ld *ladder) openSite(dir string, base int) (*site, error) {
	eng, err := engine.OpenDir(dir, poolPages, ld.engineConfig())
	if err != nil {
		return nil, err
	}
	s := &site{eng: eng, base: base}
	// Touch every page of the engine's mapping once, so that no timed
	// seam pays first-touch faults another seam already paid.
	ix := eng.Index().WithStats(&storage.IOStats{})
	for id := 0; id < ix.NumTuples(); id++ {
		ix.Tuple(id)
	}
	for dim := 0; dim < ix.Dim(); dim++ {
		for c := ix.Cursor(dim); ; {
			if _, ok := c.Next(); !ok {
				break
			}
		}
	}
	if ld.res.sp.writers > 0 {
		return s, nil // delta postings live only in the overlay; the files alone cannot replay them
	}
	st := &storage.IOStats{}
	if s.storage.lf, err = storage.OpenListFile(filepath.Join(dir, "lists.dat"), st, poolPages); err != nil {
		eng.Close()
		return nil, err
	}
	if s.storage.tf, err = storage.OpenTupleFile(filepath.Join(dir, "tuples.dat"), st, poolPages); err != nil {
		s.storage.lf.Close()
		eng.Close()
		return nil, err
	}
	for id := 0; id < s.storage.tf.NumTuples(); id++ {
		if _, err := s.storage.tf.GetWith(id, nil); err != nil {
			s.close()
			return nil, err
		}
	}
	for dim := 0; dim < s.storage.lf.Dim(); dim++ {
		for c := s.storage.lf.CursorWith(dim, nil); ; {
			if _, ok := c.Next(); !ok {
				break
			}
		}
	}
	return s, nil
}

func engineOptions(phi int) engine.Options {
	return engine.Options{Options: core.Options{Method: core.MethodCPT, Phi: phi}}
}

// probeQuery times the layers below the engine for one computed query on
// s: the TA run, the region computation (imposed != nil makes it a
// shard's round-2 computation), and the replay of the recorded access
// log through lists and storage. parent is the span the engine call
// recorded. analyze=false stops after the TA (a /topk miss).
func (ld *ladder) probeQuery(req int, parent string, s *site, q vec.Query, phi int, analyze bool, imposed []topk.Scored) error {
	ix := s.eng.Index()
	copts := core.Options{Method: core.MethodCPT, Phi: phi}
	runner := func(ta *topk.TA) core.Runner {
		if imposed != nil {
			copts.Parallelism = -1
			return core.WithImposed(ta, s.base, imposed)
		}
		return ta
	}

	// Timed: TA, then regions on the finished TA.
	ta := topk.New(ix.WithStats(ix.Stats().Child()), q, topK, topk.BestList)
	var err error
	ld.tr.time("topk", parent, req, func() { err = ta.RunContext(ld.ctx) })
	if err != nil {
		return err
	}
	ld.sortedAccesses += int64(ta.SortedAccesses())
	ld.candidates += int64(len(ta.Candidates()))
	if analyze {
		var out *core.Output
		ld.tr.time("core", parent, req, func() { out, err = core.ComputeView(ld.ctx, runner(ta), copts) })
		if err != nil {
			return err
		}
		ld.evaluated += int64(out.Metrics.Evaluated)
		ld.memBytes += out.Metrics.MemBytes
	}

	// Untimed: the same query over the recording index.
	rec := newRecIndex(ix.WithStats(ix.Stats().Child()))
	rta := topk.New(rec, q, topK, topk.BestList)
	if err := rta.RunContext(ld.ctx); err != nil {
		return err
	}
	mark := len(*rec.log)
	if analyze {
		if _, err := core.ComputeView(ld.ctx, runner(rta), copts); err != nil {
			return err
		}
	}
	log := *rec.log

	// Timed: the log through the lists layer and through storage. Which
	// goes first alternates by request, so that the second replay's
	// warmer caches do not bias the difference between the two.
	halves := []struct {
		tag, parent string // parent of the lists span: the phase that made the calls
		from, to    int
	}{{"ta", "topk", 0, mark}, {"core", "core", mark, len(log)}}
	viaLists := func() error {
		var lc []lists.Cursor
		lix := ix.WithStats(ix.Stats().Child())
		for _, half := range halves {
			start := time.Now()
			d := replayLists(lix, log, half.from, half.to, &lc)
			ld.tr.add("lists/"+half.tag, half.parent, req, start, d)
		}
		return nil
	}
	viaStorage := func() error {
		if s.storage.lf == nil {
			return nil
		}
		var sc []*storage.ListCursor
		st := ld.io.Child()
		for _, half := range halves {
			start := time.Now()
			seq, rnd, err := replayStorage(s.storage, log, half.from, half.to, &sc, st)
			if err != nil {
				return err
			}
			ld.tr.add("storage.seq/"+half.tag, "lists/"+half.tag, req, start, seq)
			ld.tr.add("storage.rand/"+half.tag, "lists/"+half.tag, req, start.Add(seq), rnd)
		}
		return nil
	}
	order := []func() error{viaLists, viaStorage}
	if req%2 == 1 {
		order[0], order[1] = order[1], order[0]
	}
	for _, replay := range order {
		if err := replay(); err != nil {
			return err
		}
	}
	return nil
}

// probeMethods times the region computation under the paper's three
// other methods on a fresh TA each.
func (ld *ladder) probeMethods(s *site, q vec.Query, phi int) error {
	ix := s.eng.Index()
	for _, m := range []core.Method{core.MethodScan, core.MethodPrune, core.MethodThres} {
		ta := topk.New(ix.WithStats(ix.Stats().Child()), q, topK, topk.BestList)
		if err := ta.RunContext(ld.ctx); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := core.Compute(ld.ctx, ta, core.Options{Method: m, Phi: phi}); err != nil {
			return err
		}
		ld.methodUS[m] = append(ld.methodUS[m], float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return nil
}

// engineReply runs one read at the engine seam and renders what the
// stream needs to steer by.
func (ld *ladder) engineReply(req int, s *site, st step) (*reply, error) {
	rep := &reply{status: http.StatusOK}
	switch st.class {
	case opAnalyze:
		var a *engine.Analysis
		var err error
		ld.tr.time("engine", "server", req, func() { a, err = s.eng.Analyze(ld.ctx, st.q, topK, engineOptions(st.phi)) })
		if err != nil {
			return nil, err
		}
		ld.source[req] = a.Source
		rep.cache = a.Source.String()
		for _, reg := range a.Regions {
			rep.regions = append(rep.regions, region{Dim: reg.Dim, Lo: reg.Lo, Hi: reg.Hi})
		}
		if a.Source == engine.SourceComputed {
			ld.phase[0] = append(ld.phase[0], float64(a.Metrics.Phase1.Nanoseconds())/1e3)
			ld.phase[1] = append(ld.phase[1], float64(a.Metrics.Phase2.Nanoseconds())/1e3)
			ld.phase[2] = append(ld.phase[2], float64(a.Metrics.Phase3.Nanoseconds())/1e3)
		}
	case opTopK:
		var info engine.TopKInfo
		var err error
		ld.tr.time("engine", "server", req, func() { _, info, err = s.eng.TopKMetered(ld.ctx, st.q, topK) })
		if err != nil {
			return nil, err
		}
		ld.source[req] = info.Source
		rep.cache = info.Source.String()
	}
	return rep, nil
}

// serveStep runs one request through an http.Handler on a recorder.
func (ld *ladder) serveStep(req int, name string, h http.Handler, st step) (*reply, error) {
	r := httptest.NewRequest(http.MethodPost, st.path, bytes.NewReader(st.body))
	r.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	ld.tr.time(name, "", req, func() { h.ServeHTTP(w, r) })
	rep := decodeReply(st, w.Code, w.Header(), w.Body.Bytes())
	if !rep.ok() {
		return nil, fmt.Errorf("request %d %s: status %d, %v", req, st.path, rep.status, rep.err)
	}
	return rep, nil
}

// runSingle replays the stream against one engine: once at the engine
// seam (with the layers below probed on every computed query) and once
// through the HTTP handler over a second, identical engine. Both replays
// see the same request sequence because every reply is a deterministic
// function of the data and the requests before it.
func (ld *ladder) runSingle(p map[string]metric) error {
	sp := ld.res.sp
	n := sp.ladder

	var sites [2]*site
	for i := range sites {
		dir, err := ld.h.generate(sp)
		if err != nil {
			return err
		}
		if sites[i], err = ld.openSite(dir, 0); err != nil {
			return err
		}
		defer sites[i].close()
	}
	lower, upper := sites[0], sites[1]

	// Seam by seam below the handler. Writes also go through two bare
	// WAL writers, so the log's cost is seen without the engine around it.
	walNone, walBatch, closeWAL, err := ld.openWALs()
	if err != nil {
		return err
	}
	defer closeWAL()
	var walOps int64
	st := sp.stream(ld.res.world, ld.res.seed, 0)
	for req := 0; req < n; req++ {
		s := st.next()
		ld.class[req] = s.class
		if s.write != nil {
			ops, wops := writeOps(s.write)
			var ar engine.ApplyResult
			var err error
			ld.tr.time("engine.apply", "server", req, func() { ar, err = lower.eng.Apply(ops) })
			if err != nil || ar.Applied != 1 {
				return fmt.Errorf("request %d: apply: %v (%+v)", req, err, ar.Results)
			}
			var tNone time.Duration
			if tNone, err = timeAppend(walNone, wops); err != nil {
				return err
			}
			tBatch, err := timeAppend(walBatch, wops)
			if err != nil {
				return err
			}
			now := time.Now()
			ld.tr.add("wal.append", "engine.apply", req, now, tNone)
			ld.tr.add("wal.fsync", "engine.apply", req, now, max(0, tBatch-tNone))
			walOps++
			st.observe(s, &reply{status: http.StatusOK, ackID: ar.Results[0].ID})
			continue
		}
		rep, err := ld.engineReply(req, lower, s)
		if err != nil {
			return err
		}
		if src := ld.source[req]; src == engine.SourceComputed {
			if err := ld.probeQuery(req, "engine", lower, s.q, s.phi, s.class == opAnalyze, nil); err != nil {
				return err
			}
			if sp.name == "cold-analyze" && req < methodProbes {
				if err := ld.probeMethods(lower, s.q, s.phi); err != nil {
					return err
				}
			}
		}
		st.observe(s, rep)
	}
	if walOps > 0 {
		put(p, "wal.bytes_per_op", float64(walBatch.Size()-walHeaderBytes)/float64(walOps), 0)
	}
	if ov, ok := lower.eng.OverlayStats(); ok {
		put(p, "lists.overlay_delta_postings", float64(ov.DeltaPostings), 0)
		put(p, "lists.overlay_bytes", float64(ov.Bytes), 0)
	}

	// The same requests through the handler.
	handler := server.FromEngine(upper.eng).Handler()
	st = sp.stream(ld.res.world, ld.res.seed, 0)
	for req := 0; req < n; req++ {
		s := st.next()
		if s.class != ld.class[req] {
			return fmt.Errorf("request %d: handler replay diverged from the engine replay", req)
		}
		rep, err := ld.serveStep(req, "server", handler, s)
		if err != nil {
			return err
		}
		ld.respLen[req] = rep.bytes
		st.observe(s, rep)
	}

	if sp.writers > 0 {
		return ld.timeCheckpoint(p)
	}
	return nil
}

// walHeaderBytes is the log file's magic.
const walHeaderBytes = 8

// openWALs opens two scratch logs, one per sync policy.
func (ld *ladder) openWALs() (none, batch *wal.Writer, closeAll func(), err error) {
	dir, err := os.MkdirTemp(ld.h.tmpDir, "wal-")
	if err != nil {
		return nil, nil, nil, err
	}
	if none, _, err = wal.Open(filepath.Join(dir, "none.log"), wal.SyncPolicy{Mode: wal.SyncNone}, 0, nil); err != nil {
		return nil, nil, nil, err
	}
	if batch, _, err = wal.Open(filepath.Join(dir, "batch.log"), wal.SyncPolicy{Mode: wal.SyncBatch}, 0, nil); err != nil {
		none.Close()
		return nil, nil, nil, err
	}
	return none, batch, func() { none.Close(); batch.Close() }, nil
}

func timeAppend(w *wal.Writer, ops []wal.Op) (time.Duration, error) {
	t0 := time.Now()
	_, err := w.Append(ops)
	return time.Since(t0), err
}

// writeOps renders a stream write as the engine's and the log's op.
func writeOps(w *writeOp) ([]engine.Op, []wal.Op) {
	switch w.kind {
	case writeInsert:
		return []engine.Op{{Kind: engine.OpInsert, Tuple: w.tuple}}, []wal.Op{{Kind: wal.OpInsert, Tuple: w.tuple}}
	case writeReplace:
		return []engine.Op{{Kind: engine.OpUpdate, ID: w.id, Tuple: w.tuple}}, []wal.Op{{Kind: wal.OpUpdate, ID: int64(w.id), Tuple: w.tuple}}
	default:
		return []engine.Op{{Kind: engine.OpDelete, ID: w.id}}, []wal.Op{{Kind: wal.OpDelete, ID: int64(w.id)}}
	}
}

// timeCheckpoint reopens the data directory the measured servers left
// behind — log unreplayed, overlay as the window ended — and times one
// forced checkpoint of it.
func (ld *ladder) timeCheckpoint(p map[string]metric) error {
	cfg := ld.engineConfig()
	eng, err := engine.OpenDir(ld.res.postDir, poolPages, cfg)
	if err != nil {
		return err
	}
	defer eng.Close()
	t0 := time.Now()
	if err := eng.Checkpoint(); err != nil {
		return err
	}
	put(p, "wal.checkpoint_ms", float64(time.Since(t0).Nanoseconds())/1e6, 0)
	return nil
}

// timedBackend decorates a shard.Backend with per-shard, per-round
// spans. shard.Backend is an interface, so these come from outside.
type timedBackend struct {
	shard.Backend
	ld    *ladder
	shard int
	req   *int // the request being replayed
	mu    *sync.Mutex
	calls *int
}

func (b timedBackend) record(name string, start time.Time) {
	d := time.Since(start)
	b.mu.Lock() // the coordinator calls its backends from one goroutine each
	b.ld.tr.add(fmt.Sprintf("%s/%d", name, b.shard), "", *b.req, start, d)
	*b.calls++
	b.mu.Unlock()
}

func (b timedBackend) TopK(ctx context.Context, q vec.Query, k int) ([]topk.Scored, error) {
	defer b.record("shard.round1", time.Now())
	return b.Backend.TopK(ctx, q, k)
}

func (b timedBackend) AnalyzeImposed(ctx context.Context, q vec.Query, k, base int, imposed []topk.Scored, opts engine.Options) (*core.Output, []topk.Scored, error) {
	defer b.record("shard.round2", time.Now())
	return b.Backend.AnalyzeImposed(ctx, q, k, base, imposed, opts)
}

// countingTransport sizes the round-2 request bodies on their way out.
type countingTransport struct {
	mu      sync.Mutex
	imposed []float64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/shard/analyze" {
		t.mu.Lock()
		t.imposed = append(t.imposed, float64(r.ContentLength))
		t.mu.Unlock()
	}
	return http.DefaultTransport.RoundTrip(r)
}

// runSharded replays the stream against a coordinator over in-process
// shard engines (timed per shard and round), against the same
// coordinator over HTTP backends on httptest servers, and through the
// coordinator's handler; computed queries are also probed on each shard
// below the engine.
func (ld *ladder) runSharded(p map[string]metric) error {
	sp := ld.res.sp
	n := sp.ladder
	dir, err := ld.h.generate(sp)
	if err != nil {
		return err
	}
	mf, err := shard.LoadManifest(filepath.Join(dir, "shards.json"))
	if err != nil {
		return err
	}
	mp, err := mf.Map()
	if err != nil {
		return err
	}

	// Two engines per shard: one behind Local backends (also probed
	// below the engine), one behind an httptest server.
	var (
		req      int
		mu       sync.Mutex
		calls    int
		sites    []*site
		local    []shard.Backend
		groups   [][]string
		transprt = &countingTransport{}
	)
	for i := 0; i < sp.shards; i++ {
		sdir := filepath.Join(dir, engine.ShardDirName(i))
		s, err := ld.openSite(sdir, mp.Base(i))
		if err != nil {
			return err
		}
		defer s.close()
		sites = append(sites, s)
		local = append(local, timedBackend{Backend: shard.Local{E: s.eng}, ld: ld, shard: i, req: &req, mu: &mu, calls: &calls})

		remote, err := engine.OpenShard(dir, i, poolPages, engine.Config{})
		if err != nil {
			return err
		}
		defer remote.Close()
		srv := server.FromEngine(remote)
		var url string
		id := fmt.Sprintf("shard-%d", i)
		srv.SetClusterInfo(func() any { return shard.SelfBeacon(id, url)() })
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		url = ts.URL
		groups = append(groups, []string{url})
	}
	ccfg := shard.Config{MaxRetries: 1} // irproxy's -shard-retries default
	coordLocal, err := shard.New(mp, local, ccfg)
	if err != nil {
		return err
	}
	remote, err := shard.NewHTTPBackends(groups, client.Config{ID: "bench", HTTPClient: &http.Client{Transport: transprt, Timeout: 30 * time.Second}})
	if err != nil {
		return err
	}
	coordHTTP, err := shard.New(mp, remote, ccfg)
	if err != nil {
		return err
	}
	handler := shard.NewHandler(coordHTTP)

	st := sp.stream(ld.res.world, ld.res.seed, 0)
	for req = 0; req < n; req++ {
		s := st.next()
		ld.class[req] = s.class
		ld.source[req] = engine.SourceComputed
		opts := engineOptions(s.phi)

		// Coordinator over in-process shards.
		var merged []topk.Scored
		var err error
		ld.tr.time("coord", "coord.http", req, func() {
			if s.class == opAnalyze {
				var a *shard.Analysis
				if a, err = coordLocal.Analyze(ld.ctx, s.q, topK, opts); err == nil {
					merged = a.Result
				}
			} else {
				_, err = coordLocal.TopK(ld.ctx, s.q, topK)
			}
		})
		if err != nil {
			return err
		}
		// Each shard below its engine: round 1 is a TA run, round 2 the
		// imposed-result region computation.
		for _, site := range sites {
			if err := ld.probeQuery(req, "shard", site, s.q, s.phi, s.class == opAnalyze, merged); err != nil {
				return err
			}
		}
		// The same coordinator over HTTP backends, and its handler; the
		// order alternates for the same reason as in probeQuery.
		viaBackends := func() error {
			var err error
			ld.tr.time("coord.http", "server", req, func() {
				if s.class == opAnalyze {
					_, err = coordHTTP.Analyze(ld.ctx, s.q, topK, opts)
				} else {
					_, err = coordHTTP.TopK(ld.ctx, s.q, topK)
				}
			})
			return err
		}
		viaHandler := func() error {
			rep, err := ld.serveStep(req, "server", handler, s)
			if err == nil {
				ld.respLen[req] = rep.bytes
			}
			return err
		}
		order := []func() error{viaBackends, viaHandler}
		if req%2 == 1 {
			order[0], order[1] = order[1], order[0]
		}
		for _, call := range order {
			if err := call(); err != nil {
				return err
			}
		}
	}
	put(p, "shard.rpcs_per_query", float64(calls)/float64(n), 0)
	put(p, "shard.imposed_bytes", median(transprt.imposed), len(transprt.imposed))
	return ld.clientHop(p, groups[0][0])
}

// clientHop times internal/client's PostJSON against a plain http.Post
// to the same httptest server and cheap endpoint, so the difference is
// the client layer's own routing cost.
func (ld *ladder) clientHop(p map[string]metric, url string) error {
	cl, err := client.New(client.Config{Seeds: []string{url}, ID: "bench-hop"})
	if err != nil {
		return err
	}
	const rounds = 300
	var viaClient, plain []float64
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if err := cl.PostJSON(ld.ctx, "/readyz", []byte("{}"), nil); err != nil {
			return err
		}
		viaClient = append(viaClient, float64(time.Since(t0).Nanoseconds())/1e3)
		t0 = time.Now()
		resp, err := http.Post(url+"/readyz", "application/json", bytes.NewReader([]byte("{}")))
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		plain = append(plain, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	put(p, "client.hop_us", median(viaClient)-median(plain), rounds)
	return nil
}

// layerMetrics turns the spans and counters into the per-layer metrics.
func (ld *ladder) layerMetrics(p map[string]metric) {
	total, self := layerTimes(ld.tr.spans)
	n := len(ld.class)
	is := func(c opClass) func(int) bool { return func(req int) bool { return ld.class[req] == c } }
	answered := func(c opClass, src engine.Source) func(int) bool {
		return func(req int) bool { return ld.class[req] == c && ld.source[req] == src }
	}
	set := func(name string, v float64, samples int) { put(p, name, v, samples) }
	// sum adds per-request values of several span names.
	sum := func(m map[string]map[int]float64, names ...string) map[int]float64 {
		out := map[int]float64{}
		for _, name := range names {
			for req, v := range m[name] {
				out[req] += v
			}
		}
		return out
	}
	perShard := float64(max(1, ld.res.sp.shards)) // shard probes run once per shard
	scaled := func(byReq map[int]float64) (float64, int) {
		v, k := medianOver(byReq, nil)
		return v / perShard, k
	}

	v, k := scaled(sum(total, "storage.seq/ta", "storage.seq/core"))
	set("storage.seq_us", v, k)
	v, k = scaled(sum(total, "storage.rand/ta", "storage.rand/core"))
	set("storage.rand_us", v, k)
	v, k = scaled(sum(self, "lists/ta", "lists/core"))
	set("lists.cursor_us", v, k)
	v, k = scaled(self["topk"])
	set("topk.run_us", v, k)
	v, k = scaled(self["core"])
	set("core.compute_us", v, k)

	computed := float64(max(1, len(total["topk"]))) * perShard // TA runs
	regions := float64(max(1, len(total["core"]))) * perShard  // region computations
	seq, rnd, bytesRead := ld.io.Snapshot()
	set("storage.seq_pages", float64(seq)/computed, 0)
	set("storage.rand_reads", float64(rnd)/computed, 0)
	set("storage.bytes_read", float64(bytesRead)/computed, 0)
	set("storage.pool_bypass", float64(ld.io.Bypasses())/computed, 0)
	set("topk.sorted_accesses", float64(ld.sortedAccesses)/computed, 0)
	set("topk.candidates", float64(ld.candidates)/computed, 0)
	set("core.evaluated", float64(ld.evaluated)/regions, 0)
	set("core.mem_bytes", float64(ld.memBytes)/regions, 0)
	for i, name := range []string{"core.phase1_us", "core.phase2_us", "core.phase3_us"} {
		set(name, median(ld.phase[i]), len(ld.phase[i]))
	}
	for m, name := range map[core.Method]string{core.MethodScan: "core.scan_us", core.MethodPrune: "core.prune_us", core.MethodThres: "core.thres_us"} {
		set(name, median(ld.methodUS[m]), len(ld.methodUS[m]))
	}

	missOf := func(req int) bool { return ld.source[req] == engine.SourceComputed && ld.class[req] != opUpdate }
	v, k = medianOver(self["engine"], missOf)
	set("engine.miss_us", v, k)
	v, k = medianOver(self["engine"], answered(opAnalyze, engine.SourceCache))
	set("engine.exact_hit_us", v, k)
	v, k = medianOver(self["engine"], answered(opTopK, engine.SourceCacheRegion))
	set("engine.region_hit_us", v, k)
	v, k = medianOver(self["engine.apply"], nil)
	set("engine.apply_us", v, k)
	v, k = medianOver(total["wal.append"], nil)
	set("wal.append_us", v, k)
	v, k = medianOver(total["wal.fsync"], nil)
	set("wal.fsync_us", v, k)

	v, k = medianOver(self["server"], is(opAnalyze))
	set("server.analyze_us", v, k)
	v, k = medianOver(self["server"], is(opTopK))
	set("server.topk_us", v, k)
	v, k = medianOver(self["server"], is(opUpdate))
	set("server.update_us", v, k)
	var respBytes [numOpClasses][]float64
	for req := 0; req < n; req++ {
		respBytes[ld.class[req]] = append(respBytes[ld.class[req]], float64(ld.respLen[req]))
	}
	set("server.analyze_resp_bytes", median(respBytes[opAnalyze]), len(respBytes[opAnalyze]))
	set("server.topk_resp_bytes", median(respBytes[opTopK]), len(respBytes[opTopK]))

	if ld.res.sp.shards > 0 {
		ld.shardMetrics(set, total, self)
	}

	// What the ladder does not explain of the client-observed medians:
	// loopback, the kernel, scheduling between processes. The handler's
	// total is the sum of the self times beneath it, so the residual is
	// the all-requests median against it, and loopback the same for the
	// workload's most frequent request class alone.
	handler, _ := medianOver(total["server"], nil)
	set("bench.ladder_residual_us", 1e3*p["bench.op_p50_ms"].Value-handler, 0)
	counts := map[opClass]int{}
	for _, c := range ld.class {
		counts[c]++
	}
	classP50 := 1e3 * p["bench.analyze_p50_ms"].Value
	main := opAnalyze
	if counts[opTopK] > counts[opAnalyze] {
		main, classP50 = opTopK, 1e3*p["bench.topk_p50_ms"].Value
	}
	handler, _ = medianOver(total["server"], is(main))
	set("server.loopback_us", classP50-handler, 0)
}

// shardMetrics derives the scatter-gather metrics from the per-shard,
// per-round spans the timed backends recorded.
func (ld *ladder) shardMetrics(set func(string, float64, int), total, self map[string]map[int]float64) {
	shards := ld.res.sp.shards
	roundMax := func(round string) (map[int]float64, []float64) {
		maxes := map[int]float64{}
		var ratios []float64
		for req := range ld.class {
			var mx, sm float64
			seen := 0
			for i := 0; i < shards; i++ {
				if d, ok := total[fmt.Sprintf("%s/%d", round, i)][req]; ok {
					mx, sm, seen = max(mx, d), sm+d, seen+1
				}
			}
			if seen > 0 {
				maxes[req] = mx
				ratios = append(ratios, mx/(sm/float64(seen)))
			}
		}
		return maxes, ratios
	}
	r1, ratios1 := roundMax("shard.round1")
	r2, ratios2 := roundMax("shard.round2")
	v, k := medianOver(r1, nil)
	set("shard.round1_us", v, k)
	v, k = medianOver(r2, nil)
	set("shard.round2_us", v, k)
	merge := map[int]float64{}
	for req, d := range total["coord"] {
		merge[req] = d - r1[req] - r2[req]
	}
	v, k = medianOver(merge, nil)
	set("shard.merge_us", v, k)
	ratios := append(ratios1, ratios2...)
	set("shard.straggler_ratio", median(ratios), len(ratios))
	v, k = medianOver(self["coord.http"], nil)
	set("shard.http_us", v, k)
}
