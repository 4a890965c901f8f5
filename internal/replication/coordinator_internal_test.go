package replication

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
)

// TestBackoffJitterDeterministic: the reconnect jitter is a pure
// function of the follower's identity — reproducible across runs, yet
// spread across distinct followers.
func TestBackoffJitterDeterministic(t *testing.T) {
	a1 := NewFollower(FollowerConfig{Dir: t.TempDir(), PrimaryAddr: "x", ID: "node-a"})
	a2 := NewFollower(FollowerConfig{Dir: t.TempDir(), PrimaryAddr: "x", ID: "node-a"})
	b := NewFollower(FollowerConfig{Dir: t.TempDir(), PrimaryAddr: "x", ID: "node-b"})
	if a1.jitter != a2.jitter {
		t.Fatalf("same ID, different jitter: %v vs %v", a1.jitter, a2.jitter)
	}
	if a1.jitter == b.jitter {
		t.Fatalf("distinct IDs collided on jitter %v", a1.jitter)
	}
	for _, f := range []*Follower{a1, b} {
		if j := f.jitter; j < 0 || j >= 0.5 {
			t.Fatalf("jitter %v outside [0, 0.5)", j)
		}
	}
	// Unset ID falls back to the directory, so two followers of the
	// same primary in different directories still spread.
	c := NewFollower(FollowerConfig{Dir: t.TempDir(), PrimaryAddr: "x"})
	d := NewFollower(FollowerConfig{Dir: t.TempDir(), PrimaryAddr: "x"})
	if c.jitter == d.jitter {
		t.Fatalf("directory-derived jitter collided: %v", c.jitter)
	}
}

// TestBackoffJitterPinned: JitterFraction's values are the ones the
// hand-rolled FNV-1a loops of the follower and internal/client
// produced, so no deployment's retry schedule moved when they became
// one function.
func TestBackoffJitterPinned(t *testing.T) {
	for id, want := range map[string]float64{
		"":        0.39306640625,
		"a":       0.068359375,
		"b":       0.20556640625,
		"proxy-1": 0.36376953125,
		"node-a":  0.41552734375,
		"node-b":  0.1279296875,
	} {
		if got := JitterFraction(id); got != want {
			t.Errorf("JitterFraction(%q) = %v, want %v", id, got, want)
		}
	}
}

// TestHeartbeatAgeZeroOnDisconnect: the staleness clock must not keep
// ticking from the last received heartbeat after the session dies — a
// disconnected follower reports no heartbeat at all, so failover
// timers fire on FailoverTimeout, not on a bogus "recent" beat.
func TestHeartbeatAgeZeroOnDisconnect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pdir, fdir := t.TempDir(), t.TempDir()
	saveDataset(t, pdir, genTuples(rng, 20))
	p := startPrimary(t, pdir, AckAsync, 0)
	fh := startFollower(t, fdir, p.addr)
	waitFor(t, "follower connected", func() bool {
		_, ok := fh.f.HeartbeatAge()
		return ok
	})
	if age, ok := fh.f.HeartbeatAge(); !ok || age < 0 {
		t.Fatalf("connected follower: age=%v ok=%v", age, ok)
	}
	// Sever the primary; the follower must stop claiming a heartbeat
	// even though one arrived milliseconds ago.
	p.close(t)
	waitFor(t, "heartbeat clock zeroed", func() bool {
		_, ok := fh.f.HeartbeatAge()
		return !ok
	})
	fh.stop(t)
}

// silentFollower completes a streaming handshake and then reads frames
// forever without ever acking — the connected-but-silent partition a
// quorum primary must not wait on twice.
type silentFollower struct {
	conn net.Conn
	done chan struct{}
}

func dialSilentFollower(t testing.TB, p *primaryHarness) *silentFollower {
	t.Helper()
	conn, err := net.Dial("tcp", p.addr)
	if err != nil {
		t.Fatal(err)
	}
	lastSeq := p.eng.LastSeq()
	h := hello{
		Proto:     ProtoVersion,
		DatasetID: p.prim.DatasetID(),
		LastSeq:   lastSeq,
		Epoch:     p.eng.Epoch(),
		LastEpoch: p.eng.EpochAt(lastSeq),
	}
	raw, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeMsg(conn, msgHello, raw); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := readMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if kind != msgWelcome {
		t.Fatalf("expected welcome, got kind %q payload %q", kind, payload)
	}
	var w welcome
	if err := json.Unmarshal(payload, &w); err != nil {
		t.Fatal(err)
	}
	if w.Mode != ModeStream {
		t.Fatalf("expected streaming session, got mode %q", w.Mode)
	}
	sf := &silentFollower{conn: conn, done: make(chan struct{})}
	go func() {
		defer close(sf.done)
		for {
			if _, _, err := readMsg(conn); err != nil {
				return
			}
			// Swallow every frame and heartbeat; never ack.
		}
	}()
	return sf
}

func (sf *silentFollower) close() {
	sf.conn.Close()
	<-sf.done
}

// TestQuorumPartitionedFollowerReaped: with a single connected follower
// that is silent (receives frames, never acks), a quorum Apply must
// fail with ErrQuorum at AckTimeout, the silent session must be reaped,
// and — crucially — it must not count toward the NEXT quorum: a fresh
// healthy follower alone then satisfies ⌈n/2⌉.
func TestQuorumPartitionedFollowerReaped(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pdir := t.TempDir()
	saveDataset(t, pdir, genTuples(rng, 20))
	p := startPrimary(t, pdir, AckQuorum, 250*time.Millisecond)
	defer p.close(t)

	sf := dialSilentFollower(t, p)
	defer sf.close()
	waitFor(t, "silent session streaming", func() bool {
		return len(p.prim.Stats().Followers) == 1
	})

	start := time.Now()
	_, err := p.eng.Apply(randBatch(rng, p.eng.N()))
	if !errors.Is(err, engine.ErrQuorum) {
		t.Fatalf("expected ErrQuorum from a silent follower, got %v", err)
	}
	if waited := time.Since(start); waited < 200*time.Millisecond {
		t.Fatalf("quorum failure fired after %v, before the 250ms AckTimeout", waited)
	}
	waitFor(t, "silent session reaped", func() bool {
		st := p.prim.Stats()
		return st.SessionsReaped == 1 && len(st.Followers) == 0
	})

	// A healthy follower now forms the whole quorum; the reaped ghost
	// must not drag n up to 2.
	fh := startFollower(t, t.TempDir(), p.addr)
	defer fh.stop(t)
	waitFor(t, "healthy follower caught up", caughtUp(p, fh))
	if _, err := p.eng.Apply(randBatch(rng, p.eng.N())); err != nil {
		t.Fatalf("apply after reap: %v", err)
	}
	if qf := p.prim.Stats().QuorumFailures; qf != 1 {
		t.Fatalf("expected exactly 1 quorum failure, got %d", qf)
	}
}

// TestHandshakeFencesStalePrimary: a follower whose hello carries a
// higher epoch deposes the primary — the handshake itself is a fencing
// channel, so a stale primary is fenced by the first follower that
// learned of the successor.
func TestHandshakeFencesStalePrimary(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pdir := t.TempDir()
	saveDataset(t, pdir, genTuples(rng, 20))
	p := startPrimary(t, pdir, AckAsync, 0)
	defer p.close(t)

	conn, err := net.Dial("tcp", p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	h := hello{
		Proto:     ProtoVersion,
		DatasetID: p.prim.DatasetID(),
		LastSeq:   p.eng.LastSeq(),
		Epoch:     p.eng.Epoch() + 3, // I have seen a newer primary
	}
	raw, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeMsg(conn, msgHello, raw); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := readMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if kind != msgError {
		t.Fatalf("expected refusal, got kind %q", kind)
	}
	_ = payload
	if !p.eng.Fenced() {
		t.Fatal("primary did not fence itself on a higher-epoch hello")
	}
	if _, err := p.eng.Apply(randBatch(rng, p.eng.N())); !errors.Is(err, engine.ErrFenced) {
		t.Fatalf("fenced primary accepted a write: %v", err)
	}
}

// TestBallotsDisjoint: for every cluster size, each member's ballot is
// the smallest epoch above what it has seen whose low bits are its
// index, and no epoch is ever minted by two members.
func TestBallotsDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for size := 1; size <= 1<<ballotBits; size++ {
		minted := map[uint64]int{}
		for trial := 0; trial < 40; trial++ {
			seen := uint64(rng.Intn(400)) // small: members' ballots meet
			if trial%4 == 0 {
				seen = rng.Uint64() >> 1
			}
			for i := 0; i < size; i++ {
				b := (&Node{index: uint64(i)}).ballot(seen)
				if b <= seen || b-seen > 1<<ballotBits || b&(1<<ballotBits-1) != uint64(i) {
					t.Fatalf("size %d: member %d's ballot above %d is %d", size, i, seen, b)
				}
				if j, ok := minted[b]; ok && j != i {
					t.Fatalf("size %d: members %d and %d both mint epoch %d", size, j, i, b)
				}
				minted[b] = i
			}
		}
	}
}

// TestNewNodeRefusesMembership: a membership ballots cannot number is
// refused before anything is opened.
func TestNewNodeRefusesMembership(t *testing.T) {
	many := make([]string, 1<<ballotBits)
	for i := range many {
		many[i] = fmt.Sprintf("http://m%d", i)
	}
	for _, tc := range []struct {
		name  string
		peers []string
		want  string
	}{
		{"65 members", many, "at most 64"},
		{"duplicate peer", []string{"http://a", "http://b", "http://a"}, "listed twice"},
		{"itself a peer", []string{"http://a", "http://self"}, "lists itself"},
	} {
		if _, err := NewNode(NodeConfig{Dir: t.TempDir(), AdvertiseHTTP: "http://self", Peers: tc.peers}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: NewNode error %v, want one naming %q", tc.name, err, tc.want)
		}
	}
	n, err := NewNode(NodeConfig{Dir: t.TempDir(), AdvertiseHTTP: "http://self", Peers: many[:len(many)-1]})
	if err != nil {
		t.Fatalf("64 members: %v", err)
	}
	n.shutdown()
}

// TestForeignMembershipNeverCounted: a peer whose /cluster names another
// membership is dropped from the probe views, so it never supports a
// primary, and last_error names it. With our membership the same peer
// confirms the primary.
func TestForeignMembershipNeverCounted(t *testing.T) {
	dir := t.TempDir()
	saveDataset(t, dir, genTuples(rand.New(rand.NewSource(17)), 20))
	down := httptest.NewServer(http.NotFoundHandler())
	down.Close()
	var (
		mu   sync.Mutex
		view ClusterInfo
	)
	supporter := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		json.NewEncoder(w).Encode(view)
	}))
	defer supporter.Close()
	n, err := NewNode(NodeConfig{Dir: dir, AdvertiseHTTP: "http://self", Peers: []string{supporter.URL, down.URL}, StartPrimary: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n.shutdown()
	for _, tc := range []struct {
		peers     []string
		confirmed bool
	}{
		{[]string{"http://self", down.URL, "http://stranger"}, false},
		{[]string{"http://self"}, false},
		{[]string{down.URL, "http://self"}, true},
	} {
		mu.Lock()
		view = ClusterInfo{
			NodeID: "supporter", Role: string(RoleFollower), Connected: true, Epoch: n.Engine().Epoch(),
			PrimaryHTTP: "http://self", HTTPAddr: supporter.URL, Peers: tc.peers,
		}
		mu.Unlock()
		n.step(context.Background())
		st := n.Stats()
		if st.Confirmed != tc.confirmed {
			t.Errorf("supporter with peers %v: confirmed %v, want %v (last_error %q)", tc.peers, st.Confirmed, tc.confirmed, st.LastError)
		}
		if named := strings.Contains(st.LastError, "ignoring "+supporter.URL); named == tc.confirmed {
			t.Errorf("supporter with peers %v: last_error %q", tc.peers, st.LastError)
		}
	}
}

// TestSingletonRebootKeepsOneEpoch: a singleton -cluster-primary mints a
// ballot epoch at every boot. Booted, then restarted three times with no
// write in between, it holds one timeline entry — each new epoch
// replaces one that owns no frame — naming the epoch it serves under.
func TestSingletonRebootKeepsOneEpoch(t *testing.T) {
	dir := t.TempDir()
	saveDataset(t, dir, genTuples(rand.New(rand.NewSource(18)), 20))
	var last uint64
	for boot := 0; boot < 4; boot++ {
		n, err := NewNode(NodeConfig{Dir: dir, AdvertiseHTTP: "http://self", StartPrimary: true})
		if err != nil {
			t.Fatal(err)
		}
		n.bootBallot(context.Background())
		eng := n.Engine()
		tl, epoch := eng.EpochTimeline(), eng.Epoch()
		n.shutdown()
		if epoch <= last || len(tl) != 1 || tl[0].Epoch != epoch {
			t.Fatalf("boot %d: epoch %d (last %d), timeline %v; want one entry for a new epoch", boot, epoch, last, tl)
		}
		last = epoch
	}
}
