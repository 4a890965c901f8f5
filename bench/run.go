package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// deployments is how many times a run sets the workload up from nothing
// and measures it; every end-to-end metric is a median over them.
const deployments = 3

// harness holds what every workload of one invocation shares.
type harness struct {
	root   string // repository checkout
	outDir string // bench/out: binaries, scratch data, run and trace files
	binDir string
	tmpDir string // this invocation's scratch directory under outDir

	// started lists every child ever launched, so that a signal or the
	// watchdog can kill them from outside the goroutine that owns them
	// (kill is idempotent).
	mu      sync.Mutex
	started []*proc
}

// killAll SIGKILLs and reaps every child still alive.
func (h *harness) killAll() {
	h.mu.Lock()
	procs := append([]*proc(nil), h.started...)
	h.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

func newHarness() (*harness, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	h := &harness{root: root, outDir: filepath.Join(root, "bench", "out")}
	if h.binDir, err = buildBinaries(root, h.outDir); err != nil {
		return nil, err
	}
	// Scratch lives inside the checkout, on the same filesystem the
	// servers would use, so fsync costs what it costs there.
	if err := os.MkdirAll(filepath.Join(h.outDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	if h.tmpDir, err = os.MkdirTemp(filepath.Join(h.outDir, "tmp"), "run-"); err != nil {
		return nil, err
	}
	return h, nil
}

func (h *harness) close() { os.RemoveAll(h.tmpDir) }

// deployment is one booted set of server processes over a fresh data dir.
type deployment struct {
	dir    string
	procs  []*proc // every server-side process; procs[0] is the entry point
	shards []*proc // the irserver shards behind a coordinator (nil otherwise)
	url    string
}

func (d *deployment) stop() {
	for _, p := range d.procs {
		p.kill()
	}
}

// servers returns the processes that hold an engine (and so a /stats).
func (d *deployment) servers() []*proc {
	if d.shards != nil {
		return d.shards
	}
	return d.procs
}

// generate runs irgen into a fresh directory.
func (h *harness) generate(sp spec) (string, error) {
	dir, err := os.MkdirTemp(h.tmpDir, sp.name+"-")
	if err != nil {
		return "", err
	}
	args := append([]string{"-out", dir, "-seed", fmt.Sprint(datasetSeed)}, sp.irgenArgs...)
	if sp.shards > 0 {
		args = append(args, "-shards", fmt.Sprint(sp.shards))
	}
	if out, err := exec.Command(filepath.Join(h.binDir, "irgen"), args...).CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: irgen: %v\n%s", err, out)
	}
	return dir, nil
}

// boot starts the workload's processes over dir and waits until each is ready.
func (h *harness) boot(sp spec, dir string) (*deployment, error) {
	d := &deployment{dir: dir}
	start := func(name, bin string, args []string) (*proc, error) {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		p, err := startProc(name, filepath.Join(h.binDir, bin), append([]string{"-addr", addr}, args...),
			filepath.Join(dir, name+".log"), "http://"+addr)
		if err != nil {
			return nil, err
		}
		h.mu.Lock()
		h.started = append(h.started, p)
		h.mu.Unlock()
		d.procs = append(d.procs, p)
		return p, nil
	}
	fail := func(err error) (*deployment, error) {
		d.stop()
		return nil, err
	}
	if sp.shards == 0 {
		p, err := start("irserver", "irserver", append([]string{"-data", dir}, sp.serverArgs...))
		if err != nil {
			return fail(err)
		}
		if err := p.waitReady("/readyz"); err != nil {
			return fail(err)
		}
		d.url = p.url
		return d, nil
	}
	var nodes []string
	for i := 0; i < sp.shards; i++ {
		p, err := start(fmt.Sprintf("shard-%d", i), "irserver",
			append([]string{"-shard-dir", dir, "-shard-id", fmt.Sprint(i)}, sp.serverArgs...))
		if err != nil {
			return fail(err)
		}
		d.shards = append(d.shards, p)
		nodes = append(nodes, p.url)
	}
	for _, p := range d.shards {
		if err := p.waitReady("/readyz"); err != nil {
			return fail(err)
		}
	}
	co, err := start("irproxy", "irproxy", []string{
		"-shard-map", filepath.Join(dir, "shards.json"), "-shard-nodes", strings.Join(nodes, ",")})
	if err != nil {
		return fail(err)
	}
	// The coordinator serves no /readyz; /healthz is its only probe.
	if err := co.waitReady("/healthz"); err != nil {
		return fail(err)
	}
	// Entry point first.
	d.procs = append([]*proc{co}, d.shards...)
	d.url = co.url
	return d, nil
}

// streams builds one stream per client.
func (sp spec) streams(w *world, seed int64) []stream {
	out := make([]stream, sp.clients)
	for c := range out {
		out[c] = sp.stream(w, seed, c)
	}
	return out
}

// live is a warmed deployment together with the loader state that
// carries from warm-up into the window: each client's stream continues
// where its warm-up stopped, so a session in flight stays coherent and
// no client re-targets an id it already deleted.
type live struct {
	dep      *deployment
	world    *world
	doers    []*httpDoer
	streams  []stream
	warmAcks [][]writeOp // per client, acknowledged during warm-up
}

func (l *live) stop() {
	for _, d := range l.doers {
		d.close()
	}
	if l.dep != nil { // nil over an in-process test server
		l.dep.stop()
	}
}

// setUp performs one full set-up — irgen, boot to ready, warm-up — and
// returns the live deployment and how long it took.
func (h *harness) setUp(sp spec, seed int64, w *world) (*live, float64, error) {
	t0 := time.Now()
	dir, err := h.generate(sp)
	if err != nil {
		return nil, 0, err
	}
	dep, err := h.boot(sp, dir)
	if err != nil {
		return nil, 0, err
	}
	if w == nil {
		// The loader's copy of the dataset is harness work, not set-up of
		// the system: stop the clock around it.
		tLoad := time.Now()
		if w, err = loadWorld(dir, sp.shards); err != nil {
			dep.stop()
			return nil, 0, err
		}
		t0 = t0.Add(time.Since(tLoad))
	}
	l := &live{dep: dep, world: w, streams: sp.streams(w, seed)}
	for range sp.clients {
		l.doers = append(l.doers, newDoer(dep.url))
	}
	logs := driveAll(l.doers, l.streams, sp.warm, 0)
	for _, lg := range logs {
		if lg.failed > 0 {
			l.stop()
			return nil, 0, fmt.Errorf("bench: %s: %d of %d warm-up requests failed", sp.name, lg.failed, lg.attempted)
		}
		l.warmAcks = append(l.warmAcks, lg.acks)
	}
	return l, time.Since(t0).Seconds(), nil
}

// sample is the server-side state read just before and just after the window.
type sample struct {
	usage []procUsage
	stats []statsDoc         // one per engine-holding process
	prom  map[string]float64 // entry point /metrics, summed over labels
}

func (h *harness) sample(d *deployment) (sample, error) {
	var s sample
	for _, p := range d.procs {
		u, err := p.usage()
		if err != nil {
			return s, fmt.Errorf("bench: %s: %w", p.name, err)
		}
		s.usage = append(s.usage, u)
	}
	for _, p := range d.servers() {
		var doc statsDoc
		if err := getJSON(p.url+"/stats", &doc); err != nil {
			return s, err
		}
		s.stats = append(s.stats, doc)
	}
	var err error
	s.prom, err = scrapeMetrics(d.url + "/metrics")
	return s, err
}

// statsDoc is the part of GET /stats the per-layer metrics read.
type statsDoc struct {
	Cache struct {
		Hits       int64 `json:"hits"`
		RegionHits int64 `json:"region_hits"`
		Misses     int64 `json:"misses"`
		Evictions  int64 `json:"evictions"`
	} `json:"cache"`
	Mutations struct {
		Batches      int64 `json:"batches"`
		CacheChecked int64 `json:"cache_checked"`
		CacheEvicted int64 `json:"cache_evicted"`
	} `json:"mutations"`
	WAL struct {
		Appends     int64 `json:"appends"`
		Syncs       int64 `json:"syncs"`
		Checkpoints int64 `json:"checkpoints"`
	} `json:"wal"`
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("bench: GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrapeMetrics reads a Prometheus text exposition and sums each
// family's samples over its labels (histogram series keep their suffix).
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out, nil
}

// sliceLen is the length of the slices a window is cut into. Every rate
// and latency is computed per slice and reported as the median over the
// slices, so a stall of the host that lasts a few seconds moves a few
// slices and not the result.
const sliceLen = time.Second

// tick is one slice boundary: when it was taken and the CPU time the
// server-side processes had used by then.
type tick struct {
	at  time.Time
	cpu float64 // seconds, user+system, summed over the processes
}

// takeTicks samples the processes' CPU time now and at the end of each
// of n slices; the returned function waits for the last one.
func takeTicks(procs []*proc, n int) (wait func() []tick) {
	take := func() tick {
		t := tick{at: time.Now()}
		for _, p := range procs {
			t.cpu += p.cpuSeconds()
		}
		return t
	}
	ticks := []tick{take()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; i <= n; i++ {
			time.Sleep(time.Until(ticks[0].at.Add(time.Duration(i) * sliceLen)))
			ticks = append(ticks, take())
		}
	}()
	return func() []tick {
		<-done
		return ticks
	}
}

// part is one deployment's share of a workload's run: its set-up, its
// share of the window, and the server-side state around that.
type part struct {
	setup  float64 // seconds
	logs   []*clientLog
	ticks  []tick // slice boundaries
	before sample
	after  sample
}

// windowResult is everything one workload's run produced.
type windowResult struct {
	sp      spec
	seed    int64
	parts   []part
	oracle  oracleReport
	postDir string // data directory of the last deployment (servers stopped)
	world   *world
}

// runWindow measures the workload on three fresh deployments in turn,
// each set up from nothing and driven for an equal share of the window
// over the same streams, and verifies the last one's answers against the
// oracle. Measuring every deployment, rather than setting up three times
// for setup_s alone, makes each reported value a median over three sets
// of server processes at no extra cost: one slow set is outvoted. The
// last deployment's data directory is left in place for the traced run
// to inspect; the harness removes it at exit.
func (h *harness) runWindow(sp spec, seed int64, window time.Duration) (*windowResult, error) {
	res := &windowResult{sp: sp, seed: seed}
	for rep := 0; rep < deployments; rep++ {
		l, secs, err := h.setUp(sp, seed, res.world)
		if err != nil {
			return nil, err
		}
		res.world = l.world
		p := part{setup: secs}
		if p.before, err = h.sample(l.dep); err == nil {
			share := window / deployments
			ticks := takeTicks(l.dep.procs, int(share/sliceLen))
			p.logs = driveAll(l.doers, l.streams, 0, share)
			p.ticks = ticks()
			p.after, err = h.sample(l.dep)
		}
		if err != nil {
			l.stop()
			return nil, err
		}
		res.parts = append(res.parts, p)
		if rep == deployments-1 {
			res.oracle = verify(l, p.logs)
			res.postDir = l.dep.dir
		}
		l.stop()
		if rep < deployments-1 {
			os.RemoveAll(l.dep.dir)
		}
	}
	return res, nil
}
