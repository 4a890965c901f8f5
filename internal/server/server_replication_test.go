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
// a live replication stream.
type replPair struct {
	primEng *engine.Engine
	prim    *replication.Primary
	fol     *replication.Follower
	cancel  context.CancelFunc
	primTS  *httptest.Server
	folTS   *httptest.Server
}

func startReplPair(t *testing.T) *replPair {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	pdir, fdir := t.TempDir(), t.TempDir()
	var tuples []vec.Sparse
	for i := 0; i < 30; i++ {
		tuples = append(tuples, vec.MustSparse(
			vec.Entry{Dim: 0, Val: rng.Float64()},
			vec.Entry{Dim: 1, Val: rng.Float64()},
			vec.Entry{Dim: 2, Val: rng.Float64()},
		))
	}
	if err := lists.SaveDataset(filepath.Join(pdir, "tuples.dat"), filepath.Join(pdir, "lists.dat"), tuples, 3); err != nil {
		t.Fatal(err)
	}

	eng, err := engine.OpenDir(pdir, 64, engine.Config{WAL: true, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	prim, err := replication.NewPrimary(eng, pdir, replication.PrimaryConfig{
		HTTPAddr:          ":8080",
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetReplicationSink(prim)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go prim.Serve(ln)

	primSrv := FromEngine(eng)
	primSrv.SetReplicationStats(func() any { return prim.Stats() })
	primTS := httptest.NewServer(primSrv.Handler())

	fol := replication.NewFollower(replication.FollowerConfig{
		Dir:           fdir,
		PrimaryAddr:   ln.Addr().String(),
		PoolPages:     64,
		RetryInterval: 25 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go fol.Run(ctx)
	readyCtx, rcancel := context.WithTimeout(ctx, 15*time.Second)
	defer rcancel()
	if _, err := fol.WaitReady(readyCtx); err != nil {
		t.Fatal(err)
	}
	folSrv := FromEngineFunc(fol.Engine)
	folSrv.SetWriteRedirect(primTS.URL)
	folSrv.SetReplicationStats(func() any { return fol.Stats() })
	folTS := httptest.NewServer(folSrv.Handler())

	return &replPair{primEng: eng, prim: prim, fol: fol, cancel: cancel, primTS: primTS, folTS: folTS}
}

func (rp *replPair) close(t *testing.T) {
	t.Helper()
	rp.folTS.Close()
	rp.primTS.Close()
	rp.cancel()
	select {
	case <-rp.fol.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("follower did not stop")
	}
	rp.fol.Close()
	rp.prim.Close()
	rp.primEng.Close()
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
// the primary and are rejected by the standby with 409 + Location,
// reads on the standby are bit-identical to the primary's, and both
// /stats expose their replication block.
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

// TestNilEngine503: a server whose engine provider yields nil (a
// standby mid-re-seed) answers queries with 503 instead of panicking,
// while /stats keeps serving the replication block — that is what an
// operator watches during the re-seed.
func TestNilEngine503(t *testing.T) {
	srv := FromEngineFunc(func() *engine.Engine { return nil })
	srv.SetReplicationStats(func() any { return map[string]string{"role": "follower"} })
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
