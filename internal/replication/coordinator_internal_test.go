package replication

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net"
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
