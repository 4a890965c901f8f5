package client

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/server"
)

// lockedBuffer captures the process log under the race detector.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestProxyRequestIDPropagation drives one query through irproxy's
// handler into a real backend server and proves the single request ID
// shows up in the proxy's access log, the backend's access log, the
// response header, and the backend's slow-query log.
func TestProxyRequestIDPropagation(t *testing.T) {
	var logs lockedBuffer
	obs.SetLogOutput(&logs)
	defer obs.SetLogOutput(os.Stderr)

	// Real backend, advertising itself as a single-member cluster's
	// confirmed primary so the routing client will target it.
	tuples, _, _ := fixture.RunningExample()
	eng := engine.New(lists.NewMemIndex(tuples, 2), engine.Config{})
	info := replication.ClusterInfo{
		NodeID: "n1", Role: "primary", Confirmed: true, Ready: true, Epoch: 1,
	}
	var infoMu sync.Mutex
	srv := server.New(server.Config{
		Querier: func() server.Querier { return eng },
		ClusterInfo: func() any {
			infoMu.Lock()
			defer infoMu.Unlock()
			return info
		},
		SlowQuery: time.Nanosecond,
	})
	backend := httptest.NewServer(obs.AccessLog(srv.Handler()))
	defer backend.Close()
	infoMu.Lock()
	info.HTTPAddr = backend.URL
	info.PrimaryHTTP = backend.URL
	infoMu.Unlock()

	c, err := New(Config{Seeds: []string{backend.URL}, ID: "obs-test"})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(obs.AccessLog(NewProxy(c).Handler()))
	defer front.Close()

	const reqID = "e2e-prop-0042"
	req, _ := http.NewRequest(http.MethodPost, front.URL+"/topk",
		strings.NewReader(`{"dims":[0,1],"weights":[0.8,0.5],"k":2}`))
	req.Header.Set(obs.RequestIDHeader, reqID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != reqID {
		t.Fatalf("response request id %q, want %q", got, reqID)
	}

	// The same ID must appear in BOTH access logs: once for the proxy's
	// /topk and once for the backend's.
	var withID int
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec["msg"] == "http_request" && rec["path"] == "/topk" && rec["request_id"] == reqID {
			withID++
		}
	}
	if withID != 2 {
		t.Fatalf("found %d /topk access-log lines carrying %q, want 2 (proxy + backend)\nlogs:\n%s",
			withID, reqID, logs.String())
	}

	// And in the backend's slow log, with the query's shape attached.
	sresp, err := http.Get(backend.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var sl server.SlowlogResponse
	if err := json.NewDecoder(sresp.Body).Decode(&sl); err != nil {
		t.Fatal(err)
	}
	for _, e := range sl.Entries {
		if e.RequestID == reqID {
			if e.Endpoint != "topk" || e.K != 2 {
				t.Fatalf("slowlog entry mismatch: %+v", e)
			}
			return
		}
	}
	t.Fatalf("no slowlog entry with request id %q: %+v", reqID, sl.Entries)
}

// TestProxyMetricsConformant scrapes the proxy's own /metrics.
func TestProxyMetricsConformant(t *testing.T) {
	c, err := New(Config{Seeds: []string{"http://127.0.0.1:1"}, ID: "obs-test-2"})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(NewProxy(c).Handler())
	defer front.Close()
	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if problems := obs.LintExposition(resp.Body); len(problems) != 0 {
		t.Fatalf("proxy exposition not conformant:\n  %s", strings.Join(problems, "\n  "))
	}
}
