package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/vec"
)

// httpCluster is a full scatter-gather deployment in-process: one real
// HTTP server per shard (standalone, self-beaconing), one internal/client
// per shard group, a coordinator over them, and the coordinator's own
// public HTTP front.
type httpCluster struct {
	shards []*httptest.Server
	coord  *Coordinator
	front  *httptest.Server
}

func newHTTPCluster(t *testing.T, tuples []vec.Sparse, m, shards int, ccfg Config) *httpCluster {
	t.Helper()
	return newHTTPClusterWrapped(t, tuples, m, shards, ccfg, nil, func(_ int, h http.Handler) http.Handler { return h })
}

// newHTTPClusterWrapped is newHTTPCluster with shard i's handler passed
// through wrap first, so a test can observe what reaches the shards,
// and each group client's config through tune, when it is not nil.
func newHTTPClusterWrapped(t *testing.T, tuples []vec.Sparse, m, shards int, ccfg Config, tune func(*client.Config), wrap func(i int, h http.Handler) http.Handler) *httpCluster {
	t.Helper()
	bases := EvenBases(len(tuples), shards)
	engines, err := engine.NewLocalShards(tuples, m, bases, engine.Config{CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	hc := &httpCluster{shards: make([]*httptest.Server, shards)}
	backends := make([]Backend, shards)
	for i, eng := range engines {
		// The beacon needs the listener's URL, so the server is built
		// between listen and start.
		ts := httptest.NewUnstartedServer(nil)
		srv := server.New(server.Config{
			Querier:     func() server.Querier { return eng },
			ClusterInfo: SelfBeacon(fmt.Sprintf("shard-%d", i), "http://"+ts.Listener.Addr().String()),
			SlowQuery:   server.DefaultSlowQuery,
		})
		ts.Config.Handler = wrap(i, srv.Handler())
		ts.Start()
		t.Cleanup(ts.Close) // idempotent; tests may Close earlier to kill a shard
		cfg := client.Config{
			Seeds:       []string{ts.URL},
			ID:          fmt.Sprintf("%s-shard-%d", t.Name(), i),
			MaxRetries:  2,
			RetryBase:   2 * time.Millisecond,
			RetryCap:    10 * time.Millisecond,
			TopologyTTL: 100 * time.Millisecond,
			HTTPClient:  &http.Client{Timeout: 5 * time.Second},
		}
		if tune != nil {
			tune(&cfg)
		}
		cl, err := client.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		backends[i] = HTTPBackend{C: cl}
		hc.shards[i] = ts
	}
	mp, err := NewMap(bases)
	if err != nil {
		t.Fatal(err)
	}
	hc.coord, err = New(mp, backends, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	hc.front = httptest.NewServer(NewHandler(hc.coord))
	t.Cleanup(hc.front.Close)
	return hc
}

// postJSON posts v to the cluster front and decodes into out, returning
// the response status and headers.
func (hc *httpCluster) postJSON(t *testing.T, path string, v, out any) (int, http.Header) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hc.front.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("POST %s: decode %q: %v", path, raw, err)
		}
	}
	return resp.StatusCode, resp.Header
}

// scrapeMetric reads one sample (exact name, or name{label="v"}) from
// the front's /metrics exposition; absent samples read as 0.
func (hc *httpCluster) scrapeMetric(t *testing.T, sample string) float64 {
	t.Helper()
	resp, err := http.Get(hc.front.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, sample+" ") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(line, sample+" ")), 64)
		if err != nil {
			t.Fatalf("parse sample %q from %q: %v", sample, line, err)
		}
		return v
	}
	return 0
}

// TestHTTPShardedBitIdentical runs the bit-identity contract through
// the real wire: standalone shard servers, internal/client routing
// (beacon discovery included), JSON round-trips, and the coordinator's
// public front — against a single-node engine over the union, before
// and after mutations shipped over /update and /delete.
func TestHTTPShardedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4301))
	ctx := context.Background()
	cs := fixture.RandCase(rng, 60, 6, 2, 3)
	single := singleNode(cs.Tuples, cs.M)
	hc := newHTTPCluster(t, cs.Tuples, cs.M, 3, Config{})

	check := func(tag string) {
		t.Helper()
		got, err := hc.coord.TopK(ctx, cs.Q, cs.K)
		if err != nil {
			t.Fatalf("%s: http topk: %v", tag, err)
		}
		want, _, err := single.TopKMetered(ctx, cs.Q, cs.K)
		if err != nil {
			t.Fatalf("%s: single topk: %v", tag, err)
		}
		diffScored(t, tag+"/topk", got, want)
		for vi, opts := range optsVariants(rng) {
			if opts.Iterative {
				continue // the shard wire carries no Iterative: no served request sets it
			}
			an, err := hc.coord.Analyze(ctx, cs.Q, cs.K, opts)
			if err != nil {
				t.Fatalf("%s: http analyze variant %d: %v", tag, vi, err)
			}
			ref, err := single.Analyze(ctx, cs.Q, cs.K, opts)
			if err != nil {
				t.Fatalf("%s: single analyze variant %d: %v", tag, vi, err)
			}
			diffOutputs(t, fmt.Sprintf("%s/variant-%d", tag, vi), an.Output, ref.Output)
		}
	}
	check("pre-mutation")

	ops := randOps(rng, cs.Q, cs.M, len(cs.Tuples), 12)
	gotRes, err := hc.coord.Apply(ops)
	if err != nil {
		t.Fatalf("http apply: %v", err)
	}
	wantRes, err := single.Apply(ops)
	if err != nil {
		t.Fatalf("single apply: %v", err)
	}
	if gotRes.Applied != wantRes.Applied {
		t.Fatalf("applied %d ops over http, single node applied %d", gotRes.Applied, wantRes.Applied)
	}
	for i := range wantRes.Results {
		g, w := gotRes.Results[i], wantRes.Results[i]
		if (g.Err == nil) != (w.Err == nil) {
			t.Fatalf("op %d error = %v over http, %v single-node", i, g.Err, w.Err)
		}
		if g.Err == nil && g.ID != w.ID {
			t.Fatalf("op %d id = %d over http, %d single-node", i, g.ID, w.ID)
		}
	}
	check("post-mutation")

	// The public front speaks the single-node JSON dialect.
	var entries []server.ResultEntry
	code, _ := hc.postJSON(t, "/topk", server.QueryRequest{
		Dims: cs.Q.Dims, Weights: cs.Q.Weights, K: cs.K,
	}, &entries)
	if code != http.StatusOK {
		t.Fatalf("front /topk status %d", code)
	}
	want, _, err := single.TopKMetered(ctx, cs.Q, cs.K)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Fatalf("front /topk returned %d entries, want %d", len(entries), len(want))
	}
	for i, e := range entries {
		if e.ID != want[i].ID || e.Score != want[i].Score {
			t.Fatalf("front /topk[%d] = %+v, want (id %d, score %v)", i, e, want[i].ID, want[i].Score)
		}
	}
	var an server.AnalyzeResponse
	code, _ = hc.postJSON(t, "/analyze", server.QueryRequest{
		Dims: cs.Q.Dims, Weights: cs.Q.Weights, K: cs.K,
	}, &an)
	if code != http.StatusOK {
		t.Fatalf("front /analyze status %d", code)
	}
	ref, err := single.Analyze(ctx, cs.Q, cs.K, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Regions) != len(ref.Regions) {
		t.Fatalf("front /analyze returned %d regions, want %d", len(an.Regions), len(ref.Regions))
	}
	for jx, rj := range an.Regions {
		if rj.Lo != ref.Regions[jx].Lo || rj.Hi != ref.Regions[jx].Hi {
			t.Fatalf("front /analyze region[%d] = [%v, %v], want [%v, %v]",
				jx, rj.Lo, rj.Hi, ref.Regions[jx].Lo, ref.Regions[jx].Hi)
		}
	}
	if hc.scrapeMetric(t, `ir_shard_fanout_total{op="topk"}`) == 0 {
		t.Fatal("/metrics exposes no topk fan-out samples")
	}
}

// TestHTTPShardKilledFailsClosed is the satellite fault-injection e2e:
// killing a shard's server mid-run makes every read and the routed
// mutation fail closed (502 at the front), with the fan-out error
// counters visible in the /metrics exposition.
func TestHTTPShardKilledFailsClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(4302))
	ctx := context.Background()
	cs := fixture.RandCase(rng, 60, 6, 2, 3)
	hc := newHTTPCluster(t, cs.Tuples, cs.M, 3, Config{})

	// Healthy first: the failure below must be the kill, not setup.
	if _, err := hc.coord.TopK(ctx, cs.Q, cs.K); err != nil {
		t.Fatalf("healthy topk: %v", err)
	}
	fanoutBefore := hc.scrapeMetric(t, `ir_shard_fanout_total{op="topk"}`)
	errsBefore := hc.scrapeMetric(t, `ir_shard_fanout_errors_total{op="topk"}`)

	hc.shards[1].Close()

	code, _ := hc.postJSON(t, "/topk", server.QueryRequest{
		Dims: cs.Q.Dims, Weights: cs.Q.Weights, K: cs.K,
	}, nil)
	if code != http.StatusBadGateway {
		t.Fatalf("front /topk with dead shard: status %d, want 502", code)
	}
	if _, err := hc.coord.Analyze(ctx, cs.Q, cs.K, engine.Options{}); err == nil {
		t.Fatal("analyze with dead shard succeeded")
	}
	// A delete owned by the dead shard fails closed, with no retry.
	victim := hc.coord.m.Base(1)
	if _, err := hc.coord.Apply([]engine.Op{{Kind: engine.OpDelete, ID: victim}}); err == nil {
		t.Fatal("apply routed to dead shard succeeded")
	}

	if got := hc.scrapeMetric(t, `ir_shard_fanout_total{op="topk"}`); got <= fanoutBefore {
		t.Fatalf("ir_shard_fanout_total{op=topk} did not grow: %v -> %v", fanoutBefore, got)
	}
	if got := hc.scrapeMetric(t, `ir_shard_fanout_errors_total{op="topk"}`); got <= errsBefore {
		t.Fatalf("ir_shard_fanout_errors_total{op=topk} did not grow: %v -> %v", errsBefore, got)
	}
}

// TestHTTPRequestIDReachesShards: the request ID a client sends to the
// front is the one every shard RPC of that query carries — two rounds
// times two shards for an /analyze — so the shards' access logs and
// slow logs can be joined to the front's by one ID.
func TestHTTPRequestIDReachesShards(t *testing.T) {
	rng := rand.New(rand.NewSource(4304))
	cs := fixture.RandCase(rng, 60, 6, 2, 3)
	var mu sync.Mutex
	seen := map[string][]string{} // shard RPC path -> inbound IDs
	hc := newHTTPClusterWrapped(t, cs.Tuples, cs.M, 2, Config{}, nil, func(_ int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/shard/") {
				mu.Lock()
				seen[r.URL.Path] = append(seen[r.URL.Path], r.Header.Get(obs.RequestIDHeader))
				mu.Unlock()
			}
			h.ServeHTTP(w, r)
		})
	})

	const id = "trace-shard-fanout-01"
	body, err := json.Marshal(server.QueryRequest{Dims: cs.Q.Dims, Weights: cs.Q.Weights, K: cs.K})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, hc.front.URL+"/analyze", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(obs.RequestIDHeader) != id {
		t.Fatalf("front /analyze: status %d, echoed ID %q", resp.StatusCode, resp.Header.Get(obs.RequestIDHeader))
	}

	mu.Lock()
	defer mu.Unlock()
	for _, path := range []string{"/shard/topk", "/shard/analyze"} {
		if len(seen[path]) != 2 {
			t.Fatalf("%s reached the shards %d times, want once per shard: %v", path, len(seen[path]), seen)
		}
		for _, got := range seen[path] {
			if got != id {
				t.Fatalf("%s carried request ID %q, want the front's %q", path, got, id)
			}
		}
	}
}

// TestHTTPRound2Reply pins what a round-2 reply carries over the wire.
// Metering: the merged answer reports the shards' work — evaluated
// candidates, random reads and phase CPU — the same through HTTP
// backends as through in-process ones (cpu_us is a clock reading, so it
// is only required to be there). Lines: a φ = 0 reply has no lines field
// and moves neither line counter; a φ = 2 reply ships the relevant lines
// only, and the counters say how many of how many.
func TestHTTPRound2Reply(t *testing.T) {
	rng := rand.New(rand.NewSource(4305))
	cs := fixture.RandCase(rng, 400, 6, 3, 4)
	local := NewHandler(localCoord(t, cs.Tuples, cs.M, 2, Config{}))
	hc := newHTTPCluster(t, cs.Tuples, cs.M, 2, Config{})
	lineCounters := func() (offered, shipped float64) {
		return hc.scrapeMetric(t, "ir_shard_lines_offered_total"), hc.scrapeMetric(t, "ir_shard_lines_shipped_total")
	}

	for _, phi := range []int{0, 2} {
		req := server.QueryRequest{Dims: cs.Q.Dims, Weights: cs.Q.Weights, K: cs.K, Phi: phi}
		var viaLocal, viaHTTP server.AnalyzeResponse
		if w := call(local, http.MethodPost, "/analyze", mustJSON(t, req)); w.Code != http.StatusOK {
			t.Fatalf("phi=%d: in-process coordinator: %d %s", phi, w.Code, w.Body)
		} else if err := json.Unmarshal(w.Body.Bytes(), &viaLocal); err != nil {
			t.Fatal(err)
		}
		offered0, shipped0 := lineCounters()
		if code, _ := hc.postJSON(t, "/analyze", req, &viaHTTP); code != http.StatusOK {
			t.Fatalf("phi=%d: HTTP coordinator: %d", phi, code)
		}
		offered1, shipped1 := lineCounters()

		lm, hm := viaLocal.Metrics, viaHTTP.Metrics
		if lm.Evaluated == 0 || lm.RandReads == 0 || lm.CPUMicros == 0 {
			t.Errorf("phi=%d: in-process backends report no work: %+v", phi, lm)
		}
		if hm.Evaluated != lm.Evaluated || hm.EvaluatedAvg != lm.EvaluatedAvg || hm.RandReads != lm.RandReads || hm.MemBytes != lm.MemBytes || hm.CPUMicros == 0 {
			t.Errorf("phi=%d: metrics over HTTP backends %+v, in process %+v", phi, hm, lm)
		}

		offered, shipped := offered1-offered0, shipped1-shipped0
		switch {
		case phi == 0 && (offered != 0 || shipped != 0):
			t.Errorf("phi=0: line counters moved by %v offered, %v shipped", offered, shipped)
		case phi > 0 && !(0 < shipped && shipped < offered):
			t.Errorf("phi=%d: shipped %v of %v offered lines", phi, shipped, offered)
		}

		// The same round 2 against shard 0 directly, for the raw body.
		res, err := hc.coord.TopK(context.Background(), cs.Q, cs.K)
		if err != nil {
			t.Fatal(err)
		}
		body := mustJSON(t, server.ShardAnalyzeRequest{Dims: cs.Q.Dims, Weights: cs.Q.Weights, K: cs.K,
			Imposed: res, Phi: phi, Method: "cpt"})
		resp, err := http.Post(hc.shards[0].URL+"/shard/analyze", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("phi=%d: /shard/analyze: %d %s %v", phi, resp.StatusCode, raw, err)
		}
		if has := bytes.Contains(raw, []byte(`"lines"`)); has != (phi > 0) {
			t.Errorf("phi=%d: /shard/analyze reply has a lines field: %v\n%s", phi, has, raw)
		}
	}
}

// TestOneRetryLoopPerShardRPC: a shard RPC is one call through its group
// client, whose loop is the only retry policy. A shard that answers
// every /shard/topk with a 503 sees the client's MaxRetries+1 attempts
// and the front answers 502. A shard that never answers sees as many,
// one at a time: the client's timeout cancels each attempt before the
// next starts, and none outlives the query.
func TestOneRetryLoopPerShardRPC(t *testing.T) {
	rng := rand.New(rand.NewSource(4306))
	cs := fixture.RandCase(rng, 60, 6, 2, 3)
	const attempts = 2 + 1 // the harness's group client: MaxRetries 2

	t.Run("unavailable", func(t *testing.T) {
		var seen atomic.Int32
		hc := newHTTPClusterWrapped(t, cs.Tuples, cs.M, 2, Config{}, nil, func(i int, h http.Handler) http.Handler {
			if i != 0 {
				return h
			}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/shard/topk" {
					h.ServeHTTP(w, r)
					return
				}
				seen.Add(1)
				http.Error(w, "unavailable", http.StatusServiceUnavailable)
			})
		})
		code, _ := hc.postJSON(t, "/topk", server.QueryRequest{Dims: cs.Q.Dims, Weights: cs.Q.Weights, K: cs.K}, nil)
		if code != http.StatusBadGateway {
			t.Fatalf("front /topk over an unavailable shard: status %d, want 502", code)
		}
		if got := seen.Load(); got != attempts {
			t.Fatalf("the shard saw %d /shard/topk attempts, want %d", got, attempts)
		}
	})

	t.Run("stalled", func(t *testing.T) {
		var (
			mu            sync.Mutex
			ctxs          []context.Context
			live, maxLive int
		)
		hc := newHTTPClusterWrapped(t, cs.Tuples, cs.M, 1, Config{}, func(c *client.Config) {
			// Backoff well above the loopback cancel latency, so an
			// attempt's handler has seen its cancellation before the next
			// attempt is sent.
			c.HTTPClient = &http.Client{Timeout: 50 * time.Millisecond}
			c.RetryBase, c.RetryCap = 100*time.Millisecond, 100*time.Millisecond
		}, func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/shard/topk" {
					h.ServeHTTP(w, r)
					return
				}
				// Drained as the real handler drains it: only then does the
				// server watch the connection and cancel the request's
				// context when the client hangs up.
				io.Copy(io.Discard, r.Body)
				mu.Lock()
				ctxs = append(ctxs, r.Context())
				live++
				maxLive = max(maxLive, live)
				mu.Unlock()
				select { // bounded, so that a context never cancelled fails the test instead of hanging it
				case <-r.Context().Done():
				case <-time.After(5 * time.Second):
				}
				mu.Lock()
				live--
				mu.Unlock()
			})
		})
		if _, err := hc.coord.TopK(context.Background(), cs.Q, cs.K); err == nil {
			t.Fatal("topk over a stalled shard succeeded")
		}
		mu.Lock()
		n, most := len(ctxs), maxLive
		mu.Unlock()
		if n != attempts {
			t.Fatalf("the shard saw %d /shard/topk attempts, want %d", n, attempts)
		}
		if most != 1 {
			t.Fatalf("%d attempts were blocked on the shard at once, want 1", most)
		}
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			mu.Lock()
			open := live
			mu.Unlock()
			if open == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d attempts still live 2 s after the query returned", open)
			}
		}
		for i, actx := range ctxs {
			if actx.Err() == nil {
				t.Errorf("attempt %d's context still live", i)
			}
		}
	})
}
