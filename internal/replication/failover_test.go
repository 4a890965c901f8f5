// Failover acceptance tests: the ROADMAP's HA scenario. A three-member
// cluster behind the routing client takes kill -9 of its primary
// mid-write-load, elects deterministically, fences the deposed primary,
// and resumes — with every acknowledged write surviving and the healed
// topology bit-identical to a single-node oracle that replays the
// committed WAL prefix.
//
// The tests live in the external test package: they drive the exported
// Node/Server/Client surfaces only, and the client package (used as the
// chaos workload driver) itself imports replication.
package replication_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lists"
	"repro/internal/replication"
	"repro/internal/server"
	"repro/internal/vec"
	"repro/internal/wal"
)

const fDims = 4

func fGenTuples(rng *rand.Rand, n int) []vec.Sparse {
	out := make([]vec.Sparse, n)
	for i := range out {
		entries := make([]vec.Entry, fDims)
		for d := 0; d < fDims; d++ {
			entries[d] = vec.Entry{Dim: d, Val: rng.Float64()}
		}
		out[i] = vec.MustSparse(entries...)
	}
	return out
}

func fSaveDataset(t testing.TB, dir string, tuples []vec.Sparse) {
	t.Helper()
	if err := lists.SaveDataset(filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat"), tuples, fDims); err != nil {
		t.Fatal(err)
	}
}

func fWaitFor(t testing.TB, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", desc)
}

// enginesDiff reports the first probe query a and b do not answer
// bit-identically (cache bypassed), nil when they agree.
func enginesDiff(label string, a, b *engine.Engine) error {
	opts := engine.Options{Options: core.Options{Method: core.MethodCPT}, NoCache: true}
	specs := [][2][]float64{
		{{0, 1}, {0.8, 0.4}},
		{{1, 2}, {0.3, 0.9}},
		{{0, 2, 3}, {0.5, 0.6, 0.7}},
		{{0, 1, 2, 3}, {0.9, 0.2, 0.5, 0.8}},
	}
	for qi, s := range specs {
		dims := make([]int, len(s[0]))
		for i, d := range s[0] {
			dims[i] = int(d)
		}
		q, err := vec.NewQuery(dims, s[1])
		if err != nil {
			return err
		}
		aa, err := a.Analyze(context.Background(), q, 5, opts)
		if err != nil {
			return fmt.Errorf("%s: query %d on the reference: %v", label, qi, err)
		}
		ba, err := b.Analyze(context.Background(), q, 5, opts)
		if err != nil {
			return fmt.Errorf("%s: query %d: %v", label, qi, err)
		}
		if !reflect.DeepEqual(aa.Result, ba.Result) || !reflect.DeepEqual(aa.Regions, ba.Regions) {
			return fmt.Errorf("%s: query %d diverged:\n  reference %+v\n  got       %+v", label, qi, aa.Result, ba.Result)
		}
	}
	return nil
}

// clusterMember is one node: a stable URL whose handler is swapped on
// kill/restart, so peers and clients keep a fixed address across the
// member's crashes — like a machine that reboots.
type clusterMember struct {
	idx    int
	dir    string
	url    string
	hs     *httptest.Server // nil on an in-memory network
	mu     sync.Mutex
	h      http.Handler // nil = process dead
	node   *replication.Node
	cancel context.CancelFunc
}

func (m *clusterMember) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	m.mu.Lock()
	h := m.h
	m.mu.Unlock()
	if h == nil {
		http.Error(w, "connection refused (member down)", http.StatusBadGateway)
		return
	}
	h.ServeHTTP(w, r)
}

func (m *clusterMember) setHandler(h http.Handler) {
	m.mu.Lock()
	m.h = h
	m.mu.Unlock()
}

type cluster struct {
	t       *testing.T
	members []*clusterMember
	// ckptBytes is every member's Engine.CheckpointBytes; network, when
	// set, gives member i its replication.Network (nil: TCP).
	ckptBytes int64
	network   func(i int) replication.Network
}

// newCluster brings up n members: member 0 boots as primary over the
// seed dataset, the rest bootstrap themselves via snapshot transfer.
func newCluster(t *testing.T, n int, tuples []vec.Sparse) *cluster {
	t.Helper()
	c := &cluster{t: t, ckptBytes: -1}
	for i := 0; i < n; i++ {
		m := &clusterMember{idx: i, dir: t.TempDir()}
		m.hs = httptest.NewServer(m)
		m.url = m.hs.URL
		c.members = append(c.members, m)
	}
	t.Cleanup(c.close)
	fSaveDataset(t, c.members[0].dir, tuples)
	for i := range c.members {
		c.start(i, i == 0)
	}
	return c
}

// start boots (or reboots) member i. Restarts always come back in the
// follower role unless bootPrimary says otherwise — the deposed-primary
// regression restarts with its original -cluster-primary flags.
func (c *cluster) start(i int, bootPrimary bool) {
	c.t.Helper()
	m := c.members[i]
	peers := make([]string, 0, len(c.members)-1)
	for j, p := range c.members {
		if j != i {
			peers = append(peers, p.url)
		}
	}
	var network replication.Network
	if c.network != nil {
		network = c.network(i)
	}
	node, err := replication.NewNode(replication.NodeConfig{
		Dir:               m.dir,
		Engine:            engine.Config{CheckpointBytes: c.ckptBytes},
		NodeID:            fmt.Sprintf("node-%d", i),
		AdvertiseHTTP:     m.url,
		Peers:             peers,
		ClusterSize:       len(c.members),
		StartPrimary:      bootPrimary,
		AckMode:           replication.AckQuorum,
		AckTimeout:        2 * time.Second,
		HeartbeatInterval: 20 * time.Millisecond,
		FailoverTimeout:   250 * time.Millisecond,
		ProbeInterval:     40 * time.Millisecond,
		ReadyLag:          1 << 20,
		RetryInterval:     20 * time.Millisecond,
		Network:           network,
	})
	if err != nil {
		c.t.Fatalf("start member %d: %v", i, err)
	}
	srv := server.New(server.Config{
		Querier:     func() server.Querier { return node.Engine() },
		WriteGate:   node.WriteGate,
		Readiness:   node.Readiness,
		ClusterInfo: func() any { return node.ClusterInfo() },
		Promote:     node.Promote,
		Replication: func() any { return node.Stats() },
		SlowQuery:   server.DefaultSlowQuery,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go node.Run(ctx)
	m.mu.Lock()
	m.h, m.node, m.cancel = srv.Handler(), node, cancel
	m.mu.Unlock()
}

// kill takes member i down hard: the HTTP address stops answering and
// the node is torn down at a frame boundary (every committed frame is
// already fsynced — followers run fsync-per-batch — so this is the
// kill -9 persistence model).
func (c *cluster) kill(i int) {
	c.t.Helper()
	m := c.members[i]
	m.mu.Lock()
	node, cancel := m.node, m.cancel
	m.h, m.node, m.cancel = nil, nil, nil
	m.mu.Unlock()
	if node == nil {
		return
	}
	cancel()
	select {
	case <-node.Done():
	case <-time.After(15 * time.Second):
		c.t.Fatalf("member %d did not shut down", i)
	}
}

func (c *cluster) close() {
	for i := range c.members {
		c.kill(i)
	}
	for _, m := range c.members {
		if m.hs != nil {
			m.hs.Close()
		}
	}
}

func (c *cluster) node(i int) *replication.Node {
	m := c.members[i]
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.node
}

func (c *cluster) urls() []string {
	out := make([]string, len(c.members))
	for i, m := range c.members {
		out[i] = m.url
	}
	return out
}

// primaryIdx returns the index of the confirmed primary, or -1.
func (c *cluster) primaryIdx() int {
	for i := range c.members {
		if n := c.node(i); n != nil {
			ci := n.ClusterInfo()
			if ci.Role == string(replication.RolePrimary) && ci.Confirmed {
				return i
			}
		}
	}
	return -1
}

// dumpState renders every member's coordination view — the post-mortem
// attached to a convergence timeout.
func (c *cluster) dumpState() string {
	var b bytes.Buffer
	for i := range c.members {
		n := c.node(i)
		if n == nil {
			fmt.Fprintf(&b, "  member %d: down\n", i)
			continue
		}
		ci := n.ClusterInfo()
		st := n.Stats()
		fmt.Fprintf(&b, "  member %d: role=%s confirmed=%v epoch=%d seq=%d connected=%v ready=%v primary_http=%q elections=%d promotions=%d demotions=%d last_error=%q\n",
			i, ci.Role, ci.Confirmed, ci.Epoch, ci.LastSeq, ci.Connected, ci.Ready, ci.PrimaryHTTP,
			st.Elections, st.Promotions, st.Demotions, st.LastError)
	}
	return b.String()
}

// fWaitTopology is fWaitFor with the cluster post-mortem on timeout.
func (c *cluster) fWaitTopology(desc string, cond func() bool) {
	c.t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.t.Fatalf("timed out waiting for %s; cluster state:\n%s", desc, c.dumpState())
}

// waitHealed waits for a healed topology: exactly one confirmed
// primary, every other live member a connected follower. It does NOT
// demand sequence equality, so it is safe to call while a write load
// is still running (followers trail the tail by a frame or two).
func (c *cluster) waitHealed() int {
	c.t.Helper()
	var prim int
	c.fWaitTopology("cluster heal", func() bool {
		prim = c.primaryIdx()
		if prim < 0 || c.node(prim) == nil {
			return false
		}
		for i := range c.members {
			if i == prim {
				continue
			}
			n := c.node(i)
			if n == nil {
				continue // still down; fine
			}
			ci := n.ClusterInfo()
			if ci.Role != string(replication.RoleFollower) || !ci.Connected {
				return false
			}
		}
		return true
	})
	return prim
}

// waitConverged waits for full quiescent convergence (see converged).
// Only meaningful once the write load has stopped.
func (c *cluster) waitConverged() int {
	c.t.Helper()
	prim := -1
	c.fWaitTopology("cluster convergence", func() bool {
		prim = c.converged()
		return prim >= 0
	})
	return prim
}

// converged returns the confirmed primary of a healed topology whose
// live followers have caught up to its sequence and epoch, or -1.
func (c *cluster) converged() int {
	prim := c.primaryIdx()
	if prim < 0 {
		return -1
	}
	pn := c.node(prim)
	if pn == nil {
		return -1
	}
	pi := pn.ClusterInfo()
	for i := range c.members {
		if i == prim {
			continue
		}
		n := c.node(i)
		if n == nil {
			continue // still down; fine
		}
		ci := n.ClusterInfo()
		if ci.Role != string(replication.RoleFollower) || !ci.Connected {
			return -1
		}
		if ci.Epoch != pi.Epoch || ci.LastSeq != pi.LastSeq {
			return -1
		}
	}
	return prim
}

func updateBody(rng *rand.Rand) []byte {
	t := make(vec.Sparse, fDims)
	for d := range t {
		t[d] = vec.Entry{Dim: d, Val: rng.Float64()}
	}
	return tupleBody(t)
}

// tupleBody is the /update body that inserts t, so a tuple read back
// from an engine renders as the body that inserted it.
func tupleBody(t vec.Sparse) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, `{"ops":[{"tuple":[`)
	for i, e := range t {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"dim":%d,"val":%.9f}`, e.Dim, e.Val)
	}
	fmt.Fprintf(&b, `]}]}`)
	return b.Bytes()
}

// newChaosClient routes through the cluster over rt (nil: the default
// transport). A call's 5 s budget is about the window the 31 attempts
// of the earlier retry count spanned: 4.05 s of backoff before jitter.
func newChaosClient(t testing.TB, c *cluster, id string, rt http.RoundTripper) *client.Client {
	t.Helper()
	cl, err := client.New(client.Config{
		Seeds:          c.urls(),
		ID:             id,
		RequestTimeout: 5 * time.Second,
		RetryBase:      10 * time.Millisecond,
		RetryCap:       150 * time.Millisecond,
		TopologyTTL:    75 * time.Millisecond,
		HTTPClient:     &http.Client{Transport: rt},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// ackRecorder is the chaos writer's transport: it remembers which
// member answered the latest 200 /update, so a lost acknowledged write
// can name the member that acknowledged it.
type ackRecorder struct {
	mu   sync.Mutex
	last string // base URL
}

func (a *ackRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && r.URL.Path == "/update" && resp.StatusCode == http.StatusOK {
		a.mu.Lock()
		a.last = r.URL.Scheme + "://" + r.URL.Host
		a.mu.Unlock()
	}
	return resp, err
}

func (a *ackRecorder) lastAck() string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.last
}

// ackedWrite is one acknowledged chaos write: its body, the member that
// acknowledged it and when, from the trial's start, and (explorer only)
// the epoch it was acknowledged at.
type ackedWrite struct {
	body   string
	member int
	at     time.Duration
	epoch  uint64
}

// memberOf returns the index of the member at base URL u, or -1.
func (c *cluster) memberOf(u string) int {
	for i, m := range c.members {
		if m.url == u {
			return i
		}
	}
	return -1
}

// lostReport is the post-mortem of a chaos trial that lost acknowledged
// writes: each acknowledged write the healed primary does not hold, with
// the member that acknowledged it, then every member's last sequence
// number and epoch timeline.
func (c *cluster) lostReport(prim *engine.Engine, acks []ackedWrite) string {
	held := make(map[string]bool)
	for id := 0; id < prim.N(); id++ {
		held[string(tupleBody(prim.Tuple(id)))] = true
	}
	var b bytes.Buffer
	for _, a := range acks {
		if !held[a.body] {
			fmt.Fprintf(&b, "  lost %s: acknowledged by member %d at %v\n", a.body, a.member, a.at.Round(time.Millisecond))
		}
	}
	for i := range c.members {
		n := c.node(i)
		if n == nil || n.Engine() == nil {
			fmt.Fprintf(&b, "  member %d: down\n", i)
			continue
		}
		e := n.Engine()
		fmt.Fprintf(&b, "  member %d: last_seq=%d epochs=%+v\n", i, e.LastSeq(), e.EpochTimeline())
	}
	return b.String()
}

// oracleCheck rebuilds the committed history on a fresh single-node
// engine — seed dataset plus the committed WAL prefix replayed frame by
// frame — and reports the first live member that does not answer
// bit-identically to it. Frames are collected across all live members'
// logs because a member that was re-seeded mid-trial keeps only a
// suffix of the log; a checkpoint folds the prefix away, so it needs
// CheckpointBytes -1.
func (c *cluster) oracleCheck(tuples []vec.Sparse, prim int) error {
	t := c.t
	pEng := c.node(prim).Engine()
	tail := pEng.LastSeq()

	frames := make(map[uint64][]byte)
	for i := range c.members {
		if c.node(i) == nil {
			continue
		}
		logPath := filepath.Join(c.members[i].dir, wal.LogName)
		if _, err := os.Stat(logPath); err != nil {
			continue
		}
		if _, err := wal.ReplayFrames(logPath, 0, func(seq uint64, frame []byte) error {
			if _, ok := frames[seq]; !ok {
				frames[seq] = frame
			}
			return nil
		}); err != nil {
			return fmt.Errorf("reading member %d log: %v", i, err)
		}
	}

	oracleDir := t.TempDir()
	fSaveDataset(t, oracleDir, tuples)
	oracle, err := engine.OpenDir(oracleDir, 0, engine.Config{WAL: true, CheckpointBytes: -1})
	if err != nil {
		return err
	}
	defer oracle.Close()
	for seq := uint64(1); seq <= tail; seq++ {
		frame, ok := frames[seq]
		if !ok {
			return fmt.Errorf("committed frame %d missing from every surviving log", seq)
		}
		if _, _, err := oracle.ApplyReplicated(frame); err != nil {
			return fmt.Errorf("oracle replay seq %d: %v", seq, err)
		}
	}

	for i := range c.members {
		n := c.node(i)
		if n == nil || n.Engine() == nil {
			continue
		}
		if err := enginesDiff(fmt.Sprintf("member %d vs oracle", i), oracle, n.Engine()); err != nil {
			return err
		}
	}
	return nil
}

// TestClusterFailoverHeals is the tentpole scenario straight: kill the
// confirmed primary, watch a standby take over with no operator action,
// write through the new primary, bring the old one back, and verify
// bit-identical convergence against the oracle.
func TestClusterFailoverHeals(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tuples := fGenTuples(rng, 30)
	c := newCluster(t, 3, tuples)
	prim := c.waitConverged()
	if prim != 0 {
		t.Fatalf("boot primary is member %d, want 0", prim)
	}

	cl := newChaosClient(t, c, "heal-test", nil)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := cl.PostJSON(ctx, "/update", updateBody(rng), nil); err != nil {
			t.Fatalf("pre-kill write %d: %v", i, err)
		}
	}

	c.kill(0)
	fWaitFor(t, "a new confirmed primary", func() bool {
		p := c.primaryIdx()
		return p > 0
	})
	newPrim := c.primaryIdx()
	if e := c.node(newPrim).ClusterInfo().Epoch; e == 0 {
		t.Fatalf("new primary did not advance the fencing epoch")
	}

	// Writes flow again with zero operator action.
	for i := 0; i < 5; i++ {
		if err := cl.PostJSON(ctx, "/update", updateBody(rng), nil); err != nil {
			t.Fatalf("post-failover write %d: %v", i, err)
		}
	}

	// The crashed member reboots (as a follower) and rejoins.
	c.start(0, false)
	prim = c.waitConverged()
	if err := c.oracleCheck(tuples, prim); err != nil {
		t.Fatal(err)
	}
}

// TestDeposedPrimaryRefusesAndRejoins is the fencing regression pinned
// by the issue: restart the killed primary with its original
// -cluster-primary flags (stale epoch). It must never take a write —
// every attempt during the window answers 409 (with a Location pointing
// at the successor) or 503, and the node then demotes itself to a
// follower of the new primary with no operator action.
func TestDeposedPrimaryRefusesAndRejoins(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tuples := fGenTuples(rng, 30)
	c := newCluster(t, 3, tuples)
	c.waitConverged()

	cl := newChaosClient(t, c, "depose-test", nil)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := cl.PostJSON(ctx, "/update", updateBody(rng), nil); err != nil {
			t.Fatalf("pre-kill write %d: %v", i, err)
		}
	}

	c.kill(0)
	fWaitFor(t, "successor elected", func() bool { return c.primaryIdx() > 0 })
	successor := c.members[c.primaryIdx()].url

	// The deposed primary comes back believing it is still the boss.
	c.start(0, true)

	// Hammer it directly until it has demoted; not one write may leak
	// through (200), and once fenced it must answer 409 with a referral
	// to the successor.
	hc := &http.Client{Timeout: 2 * time.Second, CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	saw409 := false
	fWaitFor(t, "deposed primary refuses with a 409 referral", func() bool {
		resp, err := hc.Post(c.members[0].url+"/update", "application/json", bytes.NewReader(updateBody(rng)))
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			t.Fatalf("deposed primary ACCEPTED a write")
		case http.StatusConflict:
			loc := resp.Header.Get("Location")
			if loc == "" {
				return false
			}
			if want := successor + "/update"; loc != want {
				t.Fatalf("409 Location = %q, want %q", loc, want)
			}
			saw409 = true
			return true
		}
		return false // 503 while unconfirmed: keep probing
	})
	if !saw409 {
		t.Fatal("never saw the 409 referral")
	}

	// And it rejoins as a follower, fully converged.
	prim := c.waitConverged()
	if prim == 0 {
		t.Fatal("deposed member re-took the primary role without an election")
	}
	ci := c.node(0).ClusterInfo()
	if ci.Role != string(replication.RoleFollower) || !ci.Connected {
		t.Fatalf("member 0 did not rejoin as a connected follower: %+v", ci)
	}
	if err := c.oracleCheck(tuples, prim); err != nil {
		t.Fatal(err)
	}
}

// runChaosTrial runs one randomized kill/restart schedule against a
// three-member cluster under continuous write and read load, then
// asserts the healed cluster lost no acknowledged write and matches the
// single-node oracle bit for bit.
func runChaosTrial(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	tuples := fGenTuples(rng, 30)
	c := newCluster(t, 3, tuples)
	c.waitConverged()

	ctx, cancelLoad := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var acks []ackedWrite // the writer's until wg.Wait
	start := time.Now()

	// Writer: hammer /update through the routing client; count only
	// 200-acknowledged batches. Each batch is one insert.
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(seed*31 + 1))
		rec := &ackRecorder{}
		cl := newChaosClient(t, c, fmt.Sprintf("chaos-writer-%d", seed), rec)
		for ctx.Err() == nil {
			body := updateBody(wrng)
			if err := cl.PostJSON(ctx, "/update", body, nil); err == nil {
				acks = append(acks, ackedWrite{body: string(body), member: c.memberOf(rec.lastAck()), at: time.Since(start)})
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	// Reader: hammer /analyze; during the failover window errors are
	// legitimate, the loop only exercises read routing under churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl := newChaosClient(t, c, fmt.Sprintf("chaos-reader-%d", seed), nil)
		body := []byte(`{"dims":[0,1],"weights":[0.8,0.4],"k":5,"phi":1}`)
		for ctx.Err() == nil {
			_ = cl.PostJSON(ctx, "/analyze", body, nil)
			time.Sleep(5 * time.Millisecond)
		}
	}()

	// The chaos schedule: alternate kills (primary-biased) and
	// restarts, at most one member down at a time — the quorum design
	// tolerates any single-node loss.
	down := -1
	var schedule []string // for the post-mortem
	note := func(what string, i int) {
		schedule = append(schedule, fmt.Sprintf("%v %s %d", time.Since(start).Round(time.Millisecond), what, i))
	}
	events := 4 + rng.Intn(3)
	for e := 0; e < events; e++ {
		time.Sleep(time.Duration(150+rng.Intn(200)) * time.Millisecond)
		if down >= 0 {
			c.start(down, false)
			note("restart", down)
			down = -1
			continue
		}
		victim := -1
		if prim := c.primaryIdx(); prim >= 0 && rng.Intn(3) < 2 {
			victim = prim // two thirds of kills hit the primary mid-load
		} else {
			candidates := []int{}
			for i := range c.members {
				if c.node(i) != nil {
					candidates = append(candidates, i)
				}
			}
			if len(candidates) > 0 {
				victim = candidates[rng.Intn(len(candidates))]
			}
		}
		if victim >= 0 {
			c.kill(victim)
			note("kill", victim)
			down = victim
		}
	}
	if down >= 0 {
		time.Sleep(200 * time.Millisecond)
		c.start(down, false)
		note("restart", down)
	}

	// Let the cluster heal under load, then stop the load and wait for
	// the followers to drain the tail.
	c.waitHealed()
	cancelLoad()
	wg.Wait()
	prim := c.waitConverged()

	// No acknowledged write may be lost: the workload is insert-only,
	// so the primary must hold at least seed + acked tuples (retries
	// can legitimately add more — at-least-once delivery).
	pEng := c.node(prim).Engine()
	wantAtLeast := len(tuples) + len(acks)
	if got := pEng.N(); got < wantAtLeast {
		t.Fatalf("acknowledged writes lost (seed %d): %d tuples on the healed primary member %d, want >= %d (%d acked)\nschedule: %v\n%s",
			seed, got, prim, wantAtLeast, len(acks), schedule, c.lostReport(pEng, acks))
	}
	if err := c.oracleCheck(tuples, prim); err != nil {
		t.Fatal(err)
	}
	if testing.Verbose() {
		t.Logf("seed %d: %d acked writes, healed primary member %d at seq %d epoch %d",
			seed, len(acks), prim, pEng.LastSeq(), c.node(prim).ClusterInfo().Epoch)
	}
}

// TestFailoverChaosProperty: a few fixed-seed chaos trials over real
// TCP — the tier-1 smoke test of the default network. The replayable
// fault runner is TestFailoverExplorer (explorer_test.go), which runs
// these kill/restart schedules and partitions in virtual time.
func TestFailoverChaosProperty(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosTrial(t, seed)
		})
	}
}
