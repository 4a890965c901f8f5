package server

import (
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/lists"
	"repro/internal/replication"
	"repro/internal/vec"
)

// replPair is a primary HTTP server and a standby HTTP server joined by
// a live replication stream, each over its own directory.
type replPair struct {
	pdir, fdir string
	replAddr   string // the primary's replication listener
	primEng    *engine.Engine
	prim       *replication.Primary
	fol        *replication.Follower
	cancel     context.CancelFunc
	primTS     *httptest.Server
	folTS      *httptest.Server
}

func startReplPair(t *testing.T) *replPair {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	rp := &replPair{pdir: t.TempDir(), fdir: t.TempDir()}
	var tuples []vec.Sparse
	for i := 0; i < 30; i++ {
		tuples = append(tuples, vec.MustSparse(
			vec.Entry{Dim: 0, Val: rng.Float64()},
			vec.Entry{Dim: 1, Val: rng.Float64()},
			vec.Entry{Dim: 2, Val: rng.Float64()},
		))
	}
	if err := lists.SaveDataset(filepath.Join(rp.pdir, "tuples.dat"), filepath.Join(rp.pdir, "lists.dat"), tuples, 3); err != nil {
		t.Fatal(err)
	}
	rp.startPrimary(t, "127.0.0.1:0")
	rp.startStandby(t)
	return rp
}

// startPrimary opens the primary's directory, ships its WAL on
// replAddr, and serves HTTP on the address its welcome advertises.
func (rp *replPair) startPrimary(t *testing.T, replAddr string) {
	t.Helper()
	eng, err := engine.OpenDir(rp.pdir, 0, engine.Config{WAL: true, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	primTS := httptest.NewUnstartedServer(nil)
	prim, err := replication.NewPrimary(eng, rp.pdir, replication.PrimaryConfig{
		HTTPAddr:          primTS.Listener.Addr().String(),
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", replAddr)
	if err != nil {
		t.Fatal(err)
	}
	go prim.Serve(ln)
	primTS.Config.Handler = New(Config{
		Querier:     func() Querier { return eng },
		Replication: func() any { return prim.Stats() },
	}).Handler()
	primTS.Start()
	rp.replAddr, rp.primEng, rp.prim, rp.primTS = ln.Addr().String(), eng, prim, primTS
}

func (rp *replPair) stopPrimary() {
	rp.primTS.Close()
	rp.prim.Close()
	rp.primEng.Close()
}

// startStandby runs a follower of rp.replAddr over the standby's
// directory and serves it once it has an engine, as irserver -follow
// does.
func (rp *replPair) startStandby(t *testing.T) {
	t.Helper()
	fol := replication.NewFollower(replication.FollowerConfig{
		Dir:           rp.fdir,
		PrimaryAddr:   rp.replAddr,
		RetryInterval: 25 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go fol.Run(ctx)
	readyCtx, rcancel := context.WithTimeout(ctx, 15*time.Second)
	defer rcancel()
	if _, err := fol.WaitReady(readyCtx); err != nil {
		t.Fatal(err)
	}
	rp.folTS = httptest.NewServer(New(Config{
		Querier:     func() Querier { return fol.Engine() },
		WriteGate:   fol.WriteGate,
		Replication: func() any { return fol.Stats() },
	}).Handler())
	rp.fol, rp.cancel = fol, cancel
}

func (rp *replPair) stopStandby(t *testing.T) {
	t.Helper()
	rp.folTS.Close()
	rp.cancel()
	select {
	case <-rp.fol.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("follower did not stop")
	}
	rp.fol.Close()
}

func (rp *replPair) close(t *testing.T) {
	t.Helper()
	rp.stopStandby(t)
	rp.stopPrimary()
}

func (rp *replPair) waitCaughtUp(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if eng := rp.fol.Engine(); eng != nil && eng.LastSeq() == rp.primEng.LastSeq() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("standby never caught up")
}

// TestStandbyHTTP drives the replication pair over HTTP: writes land on
// the primary and are rejected by the standby with 409 + Location (the
// HTTP address the primary's welcome advertised), reads on the standby
// are bit-identical to the primary's, and both /stats expose their
// replication block.
func TestStandbyHTTP(t *testing.T) {
	rp := startReplPair(t)
	defer rp.close(t)

	// Write through the primary's HTTP API.
	var mu MutateResponse
	resp := post(t, rp.primTS.URL+"/update", UpdateRequest{Ops: []UpdateOpJSON{
		{Tuple: []vec.Entry{{Dim: 0, Val: 0.95}, {Dim: 2, Val: 0.1}}},
	}}, &mu)
	if resp.StatusCode != http.StatusOK || mu.Applied != 1 {
		t.Fatalf("primary update: status %d %+v", resp.StatusCode, mu)
	}

	// The standby rejects the same write with a pointer home.
	resp = post(t, rp.folTS.URL+"/update", UpdateRequest{Ops: []UpdateOpJSON{
		{Tuple: []vec.Entry{{Dim: 0, Val: 0.5}}},
	}}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("standby update: status %d, want 409", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != rp.primTS.URL+"/update" {
		t.Fatalf("standby Location %q, want %q", loc, rp.primTS.URL+"/update")
	}
	resp = post(t, rp.folTS.URL+"/delete", DeleteRequest{IDs: []int{0}}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("standby delete: status %d, want 409", resp.StatusCode)
	}

	rp.waitCaughtUp(t)

	// Reads: /analyze on the standby is bit-identical to the primary.
	for _, q := range []QueryRequest{
		{Dims: []int{0, 1}, Weights: []float64{0.8, 0.4}, K: 5, NoCache: true},
		{Dims: []int{0, 1, 2}, Weights: []float64{0.5, 0.9, 0.3}, K: 4, NoCache: true},
	} {
		var pa, fa AnalyzeResponse
		if resp := post(t, rp.primTS.URL+"/analyze", q, &pa); resp.StatusCode != http.StatusOK {
			t.Fatalf("primary analyze status %d", resp.StatusCode)
		}
		if resp := post(t, rp.folTS.URL+"/analyze", q, &fa); resp.StatusCode != http.StatusOK {
			t.Fatalf("standby analyze status %d", resp.StatusCode)
		}
		if !reflect.DeepEqual(pa.Result, fa.Result) || !reflect.DeepEqual(pa.Regions, fa.Regions) {
			t.Fatalf("standby diverged for %+v:\n  primary %+v\n  standby %+v", q, pa, fa)
		}
	}

	// /stats: both sides expose their replication role and lag fields.
	role := func(url string) (string, map[string]any) {
		t.Helper()
		httpResp, err := http.Get(url + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer httpResp.Body.Close()
		var raw struct {
			Replication map[string]any `json:"replication"`
		}
		if err := json.NewDecoder(httpResp.Body).Decode(&raw); err != nil {
			t.Fatal(err)
		}
		r, _ := raw.Replication["role"].(string)
		return r, raw.Replication
	}
	if r, blk := role(rp.primTS.URL); r != "primary" || blk["tail_seq"] == nil {
		t.Fatalf("primary replication block %v", blk)
	}
	r, blk := role(rp.folTS.URL)
	if r != "follower" || blk["last_applied_seq"] == nil || blk["seq_delta"] == nil {
		t.Fatalf("standby replication block %v", blk)
	}
	if conn, _ := blk["connected"].(bool); !conn {
		t.Fatalf("standby not connected: %v", blk)
	}

	// /metrics on both roles stays exposition-conformant with the
	// replication families (lag gauges, quorum counters) registered.
	lintMetrics(t, rp.primTS.URL)
	lintMetrics(t, rp.folTS.URL)
}

// TestStandbyHTTPRedirectBeforeWelcome: a standby restarted on its own
// directory serves its local engine before any primary has welcomed it.
// Until a welcome names the primary's HTTP address, writes get a
// retryable 503 with no Location, never a pointer at the replication
// port; once the primary is back, a 409 pointing at its HTTP address.
func TestStandbyHTTPRedirectBeforeWelcome(t *testing.T) {
	rp := startReplPair(t)
	replAddr := rp.replAddr
	rp.close(t)

	rp.startStandby(t) // the primary is down: ready on the local engine
	defer rp.stopStandby(t)
	write := UpdateRequest{Ops: []UpdateOpJSON{{Tuple: []vec.Entry{{Dim: 0, Val: 0.5}}}}}
	resp := post(t, rp.folTS.URL+"/update", write, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Location") != "" {
		t.Fatalf("standby before welcome: status %d Location %q, want 503 and none",
			resp.StatusCode, resp.Header.Get("Location"))
	}

	rp.startPrimary(t, replAddr)
	defer rp.stopPrimary()
	want := rp.primTS.URL + "/update"
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp = post(t, rp.folTS.URL+"/update", write, nil)
		if resp.StatusCode == http.StatusConflict {
			break
		}
		if resp.StatusCode != http.StatusServiceUnavailable || time.Now().After(deadline) {
			t.Fatalf("standby after the primary returned: status %d, want 409", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if loc := resp.Header.Get("Location"); loc != want {
		t.Fatalf("standby Location %q, want %q", loc, want)
	}
}

// TestNilEngine503: a server whose engine provider yields nil (a
// standby mid-re-seed) answers queries with 503 instead of panicking,
// while /stats keeps serving the replication block — that is what an
// operator watches during the re-seed.
func TestNilEngine503(t *testing.T) {
	srv := New(Config{
		Querier:     func() Querier { return (*engine.Engine)(nil) },
		Replication: func() any { return map[string]string{"role": "follower"} },
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/topk", "/analyze"} {
		resp := post(t, ts.URL+path, QueryRequest{Dims: []int{0}, Weights: []float64{1}, K: 1}, nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s on nil engine: status %d, want 503", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats on nil engine: status %d, want 200", resp.StatusCode)
	}
	var body StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	blk, _ := body.Replication.(map[string]any)
	if blk["role"] != "follower" {
		t.Fatalf("replication block missing mid-re-seed: %+v", body)
	}
}
