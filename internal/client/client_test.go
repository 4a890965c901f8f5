package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
	// hung, when set, holds every request until its caller gives up or
	// release closes: a member that accepts connections but never answers.
	hung    atomic.Bool
	release chan struct{}
}

func newFakeNode(t *testing.T) *fakeNode {
	t.Helper()
	n := &fakeNode{release: make(chan struct{})}
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
	n.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.hung.Load() {
			n.hold(r)
			return
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(n.hs.Close)
	t.Cleanup(func() { close(n.release) }) // runs first: Close waits for handlers
	return n
}

func (n *fakeNode) hold(r *http.Request) {
	select {
	case <-r.Context().Done():
	case <-n.release:
	}
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
		Seeds:          seeds,
		ID:             t.Name(),
		RequestTimeout: 2 * time.Second,
		RetryBase:      5 * time.Millisecond,
		RetryCap:       20 * time.Millisecond,
		TopologyTTL:    50 * time.Millisecond,
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

// TestGiveUpAtTheBudget: a call that never succeeds ends when its time
// budget does, after as many attempts as fit in it, or at its caller's
// deadline when that comes first.
func TestGiveUpAtTheBudget(t *testing.T) {
	const slack = 250 * time.Millisecond
	n := newFakeNode(t)
	n.setInfo(replication.ClusterInfo{Role: "primary", Confirmed: true, Epoch: 1})
	unavailable := func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no confirmed primary"}`, http.StatusServiceUnavailable)
	}
	n.onWrite.Store(&unavailable)

	c := testClient(t, n)
	c.cfg.RequestTimeout = 300 * time.Millisecond
	start := time.Now()
	err := c.PostJSON(context.Background(), "/update", []byte(`{}`), nil)
	elapsed := time.Since(start)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a write to a node that answers 503 forever: %v, want the budget's deadline", err)
	}
	if elapsed > c.cfg.RequestTimeout+slack {
		t.Fatalf("gave up after %v, want within the %v budget + %v", elapsed, c.cfg.RequestTimeout, slack)
	}
	if got := n.writes.Load(); got < 2 {
		t.Fatalf("gave up after %d attempts, want at least 2", got)
	}

	c.cfg.RequestTimeout = 10 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start = time.Now()
	if err := c.PostJSON(ctx, "/update", []byte(`{}`), nil); err == nil {
		t.Fatal("a write to a node that answers 503 forever succeeded")
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond+slack {
		t.Fatalf("gave up after %v, want at the caller's 100ms deadline", elapsed)
	}
}

// TestBodyReadUnderTheBudget: the budget outlives Do, so the caller can
// read a successful response's body, and ends when the body is closed.
func TestBodyReadUnderTheBudget(t *testing.T) {
	n := newFakeNode(t)
	n.setInfo(replication.ClusterInfo{Role: "primary", Confirmed: true, Epoch: 1})
	slow := func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"applied":`))
		w.(http.Flusher).Flush()
		time.Sleep(50 * time.Millisecond)
		w.Write([]byte(`1}`))
	}
	n.onWrite.Store(&slow)

	c := testClient(t, n)
	resp, err := c.Do(context.Background(), http.MethodPost, "/update", "", nil, []byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil || string(raw) != `{"applied":1}` {
		t.Fatalf("body read after Do returned: %q, %v", raw, err)
	}
	budget := resp.Request.Context()
	if budget.Err() != nil {
		t.Fatalf("budget ended before the body was closed: %v", budget.Err())
	}
	resp.Body.Close()
	if budget.Err() != context.Canceled {
		t.Fatalf("budget after the body was closed: %v, want cancelled", budget.Err())
	}
}

// TestHungMemberAbandonedInTime: a member that accepts connections but
// never answers costs one share of the budget, not all of it. The
// member first claims the newest primary epoch, then freezes on its
// first write: that attempt is abandoned, the frozen member's probe
// runs out and it drops out of the topology, and the retry lands on
// the other primary. A read then goes to the answering standby.
func TestHungMemberAbandonedInTime(t *testing.T) {
	hung, prim, standby := newFakeNode(t), newFakeNode(t), newFakeNode(t)
	hung.setInfo(replication.ClusterInfo{Role: "primary", Confirmed: true, Epoch: 2})
	prim.setInfo(replication.ClusterInfo{Role: "primary", Confirmed: true, Epoch: 1})
	standby.setInfo(replication.ClusterInfo{Role: "follower", Connected: true, Ready: true})
	freeze := func(w http.ResponseWriter, r *http.Request) {
		hung.hung.Store(true)
		hung.hold(r)
	}
	hung.onWrite.Store(&freeze)

	c := testClient(t, hung, prim, standby)
	c.cfg.RequestTimeout = 800 * time.Millisecond
	start := time.Now()
	if err := c.PostJSON(context.Background(), "/update", []byte(`{}`), nil); err != nil {
		t.Fatalf("write with one member hung: %v", err)
	}
	if elapsed := time.Since(start); elapsed > c.cfg.RequestTimeout {
		t.Fatalf("write took %v, want within the %v budget", elapsed, c.cfg.RequestTimeout)
	}
	if hung.writes.Load() != 1 || prim.writes.Load() != 1 {
		t.Fatalf("writes: hung member %d, live primary %d; want 1 and 1", hung.writes.Load(), prim.writes.Load())
	}

	c.Invalidate()
	start = time.Now()
	var got struct {
		ServedBy string `json:"served_by"`
	}
	if err := c.PostJSON(context.Background(), "/analyze", []byte(`{}`), &got); err != nil {
		t.Fatalf("read with one member hung: %v", err)
	}
	if elapsed := time.Since(start); elapsed > c.cfg.RequestTimeout {
		t.Fatalf("read took %v, want within the %v budget", elapsed, c.cfg.RequestTimeout)
	}
	if got.ServedBy != standby.hs.URL {
		t.Fatalf("read served by %q, want the answering standby %q", got.ServedBy, standby.hs.URL)
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
