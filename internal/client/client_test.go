package client

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/replication"
)

// fakeNode is a /cluster beacon plus a scripted write endpoint.
type fakeNode struct {
	hs     *httptest.Server
	info   atomic.Pointer[replication.ClusterInfo]
	writes atomic.Int64
	// onWrite, when set, scripts /update's response; default 200.
	onWrite atomic.Pointer[func(w http.ResponseWriter, r *http.Request)]
}

func newFakeNode(t *testing.T) *fakeNode {
	t.Helper()
	n := &fakeNode{}
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, r *http.Request) {
		ci := n.info.Load()
		if ci == nil {
			http.Error(w, "not a member", http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(ci)
	})
	mux.HandleFunc("/update", func(w http.ResponseWriter, r *http.Request) {
		n.writes.Add(1)
		if fn := n.onWrite.Load(); fn != nil {
			(*fn)(w, r)
			return
		}
		w.Write([]byte(`{"applied":1}`))
	})
	mux.HandleFunc("/analyze", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(fmt.Sprintf(`{"served_by":%q}`, n.hs.URL)))
	})
	n.hs = httptest.NewServer(mux)
	t.Cleanup(n.hs.Close)
	return n
}

func (n *fakeNode) setInfo(ci replication.ClusterInfo) {
	ci.HTTPAddr = n.hs.URL
	n.info.Store(&ci)
}

func testClient(t *testing.T, nodes ...*fakeNode) *Client {
	t.Helper()
	seeds := make([]string, len(nodes))
	for i, n := range nodes {
		seeds[i] = n.hs.URL
	}
	c, err := New(Config{
		Seeds:       seeds,
		ID:          t.Name(),
		MaxRetries:  4,
		RetryBase:   5 * time.Millisecond,
		RetryCap:    20 * time.Millisecond,
		TopologyTTL: 50 * time.Millisecond,
		HTTPClient:  &http.Client{Timeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRoutingWritesToPrimaryReadsToLeastLagged: writes land on the
// confirmed primary; reads on the connected, ready standby with the
// smallest lag.
func TestRoutingWritesToPrimaryReadsToLeastLagged(t *testing.T) {
	prim, lag2, lag9 := newFakeNode(t), newFakeNode(t), newFakeNode(t)
	prim.setInfo(replication.ClusterInfo{Role: "primary", Confirmed: true, Epoch: 1, Ready: true})
	lag2.setInfo(replication.ClusterInfo{Role: "follower", Connected: true, Ready: true, LagSeqs: 2})
	lag9.setInfo(replication.ClusterInfo{Role: "follower", Connected: true, Ready: true, LagSeqs: 9})

	c := testClient(t, prim, lag2, lag9)
	ctx := context.Background()
	if got, err := c.Primary(ctx); err != nil || got != prim.hs.URL {
		t.Fatalf("Primary() = %q, %v; want %q", got, err, prim.hs.URL)
	}
	if got, err := c.ReadTarget(ctx); err != nil || got != lag2.hs.URL {
		t.Fatalf("ReadTarget() = %q, %v; want least-lagged %q", got, err, lag2.hs.URL)
	}
	if err := c.PostJSON(ctx, "/update", []byte(`{}`), nil); err != nil {
		t.Fatal(err)
	}
	if prim.writes.Load() != 1 || lag2.writes.Load() != 0 {
		t.Fatalf("write went to the wrong node (primary=%d lag2=%d)", prim.writes.Load(), lag2.writes.Load())
	}

	// A standby that loses readiness drops out of read routing.
	lag2.setInfo(replication.ClusterInfo{Role: "follower", Connected: true, Ready: false, LagSeqs: 2})
	c.Invalidate()
	if got, _ := c.ReadTarget(ctx); got != lag9.hs.URL {
		t.Fatalf("ReadTarget() = %q, want the remaining ready standby %q", got, lag9.hs.URL)
	}
}

// TestWriteFollows409Redirect: a deposed node's 409 + Location referral
// re-points the client at the successor, which then takes the retry.
func TestWriteFollows409Redirect(t *testing.T) {
	old, succ := newFakeNode(t), newFakeNode(t)
	// Both still claim the primary role (the stale one hasn't demoted
	// yet); the stale one wins discovery by epoch order in the seed
	// list, then refers.
	old.setInfo(replication.ClusterInfo{Role: "primary", Confirmed: true, Epoch: 1})
	succ.setInfo(replication.ClusterInfo{Role: "follower", Connected: true, Ready: true})
	refuse := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Location", succ.hs.URL+r.URL.Path)
		http.Error(w, `{"error":"not the primary"}`, http.StatusConflict)
	}
	old.onWrite.Store(&refuse)

	c := testClient(t, old, succ)
	if err := c.PostJSON(context.Background(), "/update", []byte(`{}`), nil); err != nil {
		t.Fatal(err)
	}
	if succ.writes.Load() != 1 {
		t.Fatalf("successor saw %d writes, want 1", succ.writes.Load())
	}
}

// TestRetryOn503ThenSuccess: a plain 503 (election in progress) is
// retried until the node recovers.
func TestRetryOn503ThenSuccess(t *testing.T) {
	n := newFakeNode(t)
	n.setInfo(replication.ClusterInfo{Role: "primary", Confirmed: true, Epoch: 1})
	var failures atomic.Int64
	flaky := func(w http.ResponseWriter, r *http.Request) {
		if failures.Add(1) <= 2 {
			http.Error(w, `{"error":"no confirmed primary"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"applied":1}`))
	}
	n.onWrite.Store(&flaky)

	c := testClient(t, n)
	if err := c.PostJSON(context.Background(), "/update", []byte(`{}`), nil); err != nil {
		t.Fatalf("write did not survive transient 503s: %v", err)
	}
	if got := n.writes.Load(); got != 3 {
		t.Fatalf("expected 3 attempts (2 failures + success), got %d", got)
	}
}

// TestIndeterminate503NotRetried: a 503 carrying X-Indeterminate means
// the write may have committed — the client must surface it, not
// retry into a double-apply.
func TestIndeterminate503NotRetried(t *testing.T) {
	n := newFakeNode(t)
	n.setInfo(replication.ClusterInfo{Role: "primary", Confirmed: true, Epoch: 1})
	indeterminate := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Indeterminate", "true")
		http.Error(w, `{"error":"batch applied locally but quorum missed"}`, http.StatusServiceUnavailable)
	}
	n.onWrite.Store(&indeterminate)

	c := testClient(t, n)
	err := c.PostJSON(context.Background(), "/update", []byte(`{}`), nil)
	se, ok := err.(*StatusError)
	if !ok {
		t.Fatalf("expected a StatusError, got %v", err)
	}
	if !se.Indeterminate || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("expected an indeterminate 503, got %+v", se)
	}
	if got := n.writes.Load(); got != 1 {
		t.Fatalf("indeterminate write was retried %d times", got-1)
	}
}

// TestJitterDeterministic: the retry jitter is a pure function of the
// client identity.
func TestJitterDeterministic(t *testing.T) {
	if replication.JitterFraction("a") != replication.JitterFraction("a") {
		t.Fatal("jitter not deterministic")
	}
	if replication.JitterFraction("a") == replication.JitterFraction("b") {
		t.Fatal("distinct identities collided")
	}
	if j := replication.JitterFraction("proxy-1"); j < 0 || j >= 0.5 {
		t.Fatalf("jitter %v outside [0, 0.5)", j)
	}
}

// TestProxyForwards: the proxy relays routed responses verbatim and
// serves its own /healthz.
func TestProxyForwards(t *testing.T) {
	prim := newFakeNode(t)
	prim.setInfo(replication.ClusterInfo{Role: "primary", Confirmed: true, Epoch: 1, Ready: true})
	c := testClient(t, prim)
	proxy := httptest.NewServer(NewProxy(c).Handler())
	defer proxy.Close()

	resp, err := http.Post(proxy.URL+"/update", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || prim.writes.Load() != 1 {
		t.Fatalf("proxy write: status %d, %d upstream writes", resp.StatusCode, prim.writes.Load())
	}
	resp, err = http.Get(proxy.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("proxy /healthz: %d", resp.StatusCode)
	}
}
