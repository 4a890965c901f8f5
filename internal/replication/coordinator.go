// The failover coordinator: a Node wraps one cluster member's whole
// replication life — primary or follower, and the transitions between
// them — so a primary crash heals with zero operator action.
//
// # Model
//
// Every member runs a Node. The Node owns a single persistent
// replication listener (its address never changes across role changes)
// and a periodic coordination step:
//
//   - A follower measures primary health over the tail-heartbeat
//     stream it already receives: no heartbeat, frame or welcome
//     within FailoverTimeout means the primary is dead or partitioned
//     away. Only then does it probe the peers' GET /cluster endpoints
//     to discover a live primary or stand for election.
//   - The election is deterministic: among the reachable members
//     (which must be a majority of the configured cluster size), the
//     follower with the highest fsynced sequence wins, node ID
//     breaking ties. Every reachable member computes the same winner
//     from the same views; only the winner promotes itself.
//   - Promotion advances the fencing epoch to max(all observed)+1 and
//     persists it (engine.AdvanceEpoch) before serving a single write.
//   - A deposed primary learns of the newer epoch through a probe or a
//     follower's handshake, fences itself (client writes fail with
//     409), broadcasts msgDeposed to its sessions, and rejoins as a
//     follower of the successor — wiping its divergent tail if the
//     successor's timeline refuses it.
//
// # Split-brain prevention
//
// Two primaries can only both accept writes if each believes itself
// current. The Node makes that unreachable by construction; the
// invariant named after each claim is the one the failover explorer
// (explorer_test.go, docs/replication.md) checks it by after every
// step of its fault schedules:
//
//  1. (I2, I3) A node never accepts client writes unless it is a CONFIRMED
//     primary, and confirmation is supporter-based and continuously
//     re-evaluated: a supporter is a member whose probe reports it as
//     a connected follower of THIS node at THIS node's epoch, and the
//     node is confirmed only while supporters (counting itself) form
//     a majority of the configured cluster size. A follower streams
//     from exactly one primary, so two primaries can never hold
//     disjoint supporter majorities simultaneously — even if a race
//     mints the same epoch twice, at most one of the pair can accept
//     writes, and the equal-epoch rival rule below demotes the loser.
//  2. (I1) Promotion requires a majority of members reachable, and a fresh
//     primary starts UNCONFIRMED (unless the cluster is a singleton):
//     it serves 409/503, never a write, until a probe round shows a
//     supporter majority. Equal-epoch rivals resolve deterministically
//     — lower (seq, id) demotes, and a loser that never confirmed
//     never acked a write at that epoch, so nothing is lost.
//  3. (I1) The epoch is persisted in the MANIFEST before the promoted
//     primary accepts its first write, and every handshake carries
//     epochs both ways, so any contact between a stale primary and the
//     rest of the cluster fences the stale one (engine.Fence).
//
// No acknowledged write is lost (I2) because a quorum-mode primary
// acknowledges only once it and its ackers form a majority of the
// configured cluster (Primary.Gate's floor), the election picks the
// newest history of a majority (newerHistory: last epoch, then
// length), and a member never follows a primary with an older history
// than its own unless that primary is confirmed at a higher epoch
// (followable) — so a winner elected from views that missed the newest
// frames is outvoted, not followed.
//
// The orthodox alternative is consensus (Raft) on every write; this
// coordinator deliberately keeps the data path untouched (the PR 5
// shipping protocol) and pays for it with a weaker liveness guarantee:
// a partitioned minority serves stale reads until it reconnects.
package replication

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/wal"
)

// Role is a Node's current cluster role.
type Role string

const (
	RolePrimary  Role = "primary"
	RoleFollower Role = "follower"
)

// ClusterInfo is the GET /cluster document every Node serves: the
// topology beacon coordinators, proxies and operators discover the
// cluster through.
type ClusterInfo struct {
	NodeID    string `json:"node_id"`
	Role      string `json:"role"`
	Confirmed bool   `json:"confirmed"` // primary only: leadership verified against a majority
	Epoch     uint64 `json:"epoch"`
	LastSeq   uint64 `json:"last_seq"`
	// LastEpoch is the epoch that wrote the frame at LastSeq: with it,
	// the election ranks histories as (LastEpoch, LastSeq), not by
	// length alone.
	LastEpoch uint64 `json:"last_epoch"`
	DatasetID string `json:"dataset_id,omitempty"`
	// HTTPAddr is this node's advertised HTTP base URL; ReplAddr its
	// live replication listener.
	HTTPAddr string `json:"http_addr"`
	ReplAddr string `json:"repl_addr"`
	// PrimaryHTTP is where this node believes the current primary
	// serves HTTP (itself, when primary).
	PrimaryHTTP string   `json:"primary_http,omitempty"`
	Peers       []string `json:"peers,omitempty"`
	Ready       bool     `json:"ready"`
	Connected   bool     `json:"connected"` // follower: replication session up
	LagSeqs     uint64   `json:"lag_seqs"`  // follower: primary tail minus applied
}

// FetchClusterInfo retrieves a node's /cluster document.
func FetchClusterInfo(ctx context.Context, hc *http.Client, baseURL string) (ClusterInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/cluster", nil)
	if err != nil {
		return ClusterInfo{}, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return ClusterInfo{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
		return ClusterInfo{}, fmt.Errorf("replication: %s/cluster: %s", baseURL, resp.Status)
	}
	var ci ClusterInfo
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxControlBytes)).Decode(&ci); err != nil {
		return ClusterInfo{}, err
	}
	return ci, nil
}

// NodeConfig tunes a cluster member.
type NodeConfig struct {
	// Dir is the member's data directory; Engine the base engine
	// configuration (durability and writability are forced, as for
	// followers).
	Dir    string
	Engine engine.Config
	// NodeID is the member's stable identity and the election
	// tiebreaker (default AdvertiseHTTP).
	NodeID string
	// AdvertiseHTTP is this member's HTTP base URL, e.g.
	// "http://db1:8080" — what peers probe and clients get redirected
	// to.
	AdvertiseHTTP string
	// ReplListen is the replication listen address (default
	// "127.0.0.1:0"). AdvertiseRepl overrides the address peers are
	// told to dial (default: the bound listener address).
	ReplListen    string
	AdvertiseRepl string
	// Peers are the OTHER members' AdvertiseHTTP base URLs.
	// ClusterSize is the full membership count for majority math
	// (default len(Peers)+1).
	Peers       []string
	ClusterSize int
	// StartPrimary makes this member boot in the primary role. It
	// still must confirm leadership against a majority before
	// accepting writes (see the package comment).
	StartPrimary bool
	// AckMode / AckTimeout / HeartbeatInterval configure the Primary
	// role (see PrimaryConfig).
	AckMode           AckMode
	AckTimeout        time.Duration
	HeartbeatInterval time.Duration
	// FailoverTimeout is how long a follower tolerates heartbeat
	// silence before suspecting the primary (default 2s; must exceed
	// HeartbeatInterval). ProbeInterval is the coordination step
	// period (default 500ms).
	FailoverTimeout time.Duration
	ProbeInterval   time.Duration
	// ReadyLag is the /readyz lag bound in sequence numbers (default
	// 1024).
	ReadyLag uint64
	// DialTimeout / RetryInterval tune the follower role (see
	// FollowerConfig).
	DialTimeout   time.Duration
	RetryInterval time.Duration
	// Network carries the replication listener, the follower role's
	// dial and the /cluster probes (nil: TCP); the Node hands it to
	// every Follower it runs.
	Network Network
}

func (c *NodeConfig) setDefaults() {
	if c.NodeID == "" {
		c.NodeID = c.AdvertiseHTTP
	}
	if c.ReplListen == "" {
		c.ReplListen = "127.0.0.1:0"
	}
	if c.ClusterSize <= 0 {
		c.ClusterSize = len(c.Peers) + 1
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.FailoverTimeout <= 0 {
		c.FailoverTimeout = 2 * time.Second
	}
	if c.ReadyLag == 0 {
		c.ReadyLag = 1024
	}
	if c.Network == nil {
		c.Network = tcpNetwork{}
	}
}

// Node is one cluster member's coordinator: it owns the persistent
// replication listener, the current Primary or Follower, and the
// role transitions between them.
type Node struct {
	cfg  NodeConfig
	ln   net.Listener
	hc   *http.Client
	done chan struct{}

	// stepMu serializes role transitions: the coordination step loop
	// and operator-forced Promote. Never held while n.mu is needed by
	// fast accessors — transitions take mu only for short field flips.
	stepMu sync.Mutex

	mu        sync.Mutex
	runCtx    context.Context
	role      Role
	confirmed bool
	prim      *Primary
	fol       *Follower
	folCancel context.CancelFunc
	eng       *engine.Engine // the engine, whenever not owned by fol
	primHTTP  string         // believed current primary's HTTP base URL
	lastErr   string
	dsID      string // cached DATASET_ID

	elections  atomic.Int64
	promotions atomic.Int64
	demotions  atomic.Int64
}

// NewNode opens the member's engine (when the directory holds a
// dataset), binds the replication listener and assumes the boot role.
// Call Run to start coordinating.
func NewNode(cfg NodeConfig) (*Node, error) {
	cfg.setDefaults()
	n := &Node{
		cfg:  cfg,
		done: make(chan struct{}),
		hc:   &http.Client{Timeout: cfg.FailoverTimeout, Transport: cfg.Network.Transport()},
		role: RoleFollower,
	}
	if hasDataset(cfg.Dir) {
		eng, err := engine.OpenDir(cfg.Dir, 0, n.engineConfig())
		if err != nil {
			return nil, fmt.Errorf("replication: node open %s: %w", cfg.Dir, err)
		}
		n.eng = eng
	}
	ln, err := cfg.Network.Listen(cfg.ReplListen)
	if err != nil {
		if n.eng != nil {
			n.eng.Close()
		}
		return nil, fmt.Errorf("replication: node listen %s: %w", cfg.ReplListen, err)
	}
	n.ln = ln
	if cfg.StartPrimary {
		if n.eng == nil {
			ln.Close()
			return nil, fmt.Errorf("replication: %s holds no dataset; a boot primary needs one", cfg.Dir)
		}
		if err := n.attachPrimary(n.eng); err != nil {
			ln.Close()
			n.eng.Close()
			return nil, err
		}
		n.role = RolePrimary
		n.confirmed = cfg.ClusterSize == 1 // nobody to confirm against
		n.primHTTP = cfg.AdvertiseHTTP
	}
	return n, nil
}

// engineConfig forces the durable, fsync-per-batch configuration every
// cluster member needs in either role.
func (n *Node) engineConfig() engine.Config {
	cfg := n.cfg.Engine
	cfg.WAL = true
	cfg.ReadOnly = false
	cfg.WALSync = wal.SyncPolicy{Mode: wal.SyncBatch}
	return cfg
}

// attachPrimary builds a Primary over eng, which wires itself in as
// the engine's sink and (in quorum mode) commit gate. Caller updates
// role fields.
func (n *Node) attachPrimary(eng *engine.Engine) error {
	prim, err := NewPrimary(eng, n.cfg.Dir, PrimaryConfig{
		HTTPAddr:          n.cfg.AdvertiseHTTP,
		AckMode:           n.cfg.AckMode,
		AckTimeout:        n.cfg.AckTimeout,
		HeartbeatInterval: n.cfg.HeartbeatInterval,
	})
	if err != nil {
		return err
	}
	prim.minAcks = n.majority() - 1
	n.prim = prim
	return nil
}

// ReplAddr returns the address peers should dial for replication.
func (n *Node) ReplAddr() string {
	if n.cfg.AdvertiseRepl != "" {
		return n.cfg.AdvertiseRepl
	}
	return n.ln.Addr().String()
}

// Done is closed when Run returns (shutdown complete).
func (n *Node) Done() <-chan struct{} { return n.done }

// Run accepts replication connections and coordinates role transitions
// until ctx fires, then shuts everything down (including the engine).
// It blocks; run it in its own goroutine.
func (n *Node) Run(ctx context.Context) {
	defer close(n.done)
	n.mu.Lock()
	n.runCtx = ctx
	n.mu.Unlock()
	go n.acceptLoop()
	n.step(ctx)
	t := time.NewTicker(n.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			n.shutdown()
			return
		case <-t.C:
			n.step(ctx)
		}
	}
}

// acceptLoop dispatches replication connections to the current Primary;
// while not primary, dialers are told where to go instead. The listener
// (and so the member's replication address) survives role changes.
func (n *Node) acceptLoop() {
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		n.mu.Lock()
		prim, primHTTP := n.prim, n.primHTTP
		n.mu.Unlock()
		if prim == nil {
			go func(c net.Conn) {
				_ = writeMsg(c, msgError, []byte(fmt.Sprintf("not primary; current primary: %s", primHTTP)))
				c.Close()
			}(conn)
			continue
		}
		go prim.handle(conn)
	}
}

func (n *Node) shutdown() {
	n.ln.Close()
	n.stepMu.Lock()
	defer n.stepMu.Unlock()
	n.mu.Lock()
	prim, fol, cancel, eng := n.prim, n.fol, n.folCancel, n.eng
	n.prim, n.fol, n.folCancel, n.eng = nil, nil, nil, nil
	n.mu.Unlock()
	if prim != nil {
		prim.Close()
	}
	if fol != nil {
		if cancel != nil {
			cancel()
		}
		<-fol.Done()
		fol.Close()
	}
	if eng != nil {
		eng.Close()
	}
}

// step runs one coordination round. stepMu makes transitions atomic
// with respect to operator-forced promotion.
func (n *Node) step(ctx context.Context) {
	n.stepMu.Lock()
	defer n.stepMu.Unlock()
	if ctx.Err() != nil {
		return
	}
	n.mu.Lock()
	role := n.role
	n.mu.Unlock()
	if role == RolePrimary {
		n.stepPrimary(ctx)
	} else {
		n.stepFollower(ctx)
	}
}

// stepPrimary probes the peers for a higher epoch (self-fence +
// demotion), resolves equal-epoch rivalries, and re-evaluates the
// supporter majority that confirms leadership.
func (n *Node) stepPrimary(ctx context.Context) {
	n.mu.Lock()
	eng := n.eng
	n.mu.Unlock()
	if eng == nil {
		return // shutting down
	}
	views := n.probePeers(ctx)
	myEpoch, myID := eng.Epoch(), n.cfg.NodeID
	var successor ClusterInfo
	haveSuccessor := false
	rivalWins := false
	supporters := 1 // self
	for _, v := range views {
		if !datasetCompatible(n.datasetID(), v.DatasetID) {
			continue
		}
		if v.Epoch > myEpoch {
			eng.Fence(v.Epoch)
		}
		if v.Role == string(RoleFollower) && v.Connected &&
			v.Epoch == myEpoch && v.PrimaryHTTP == n.cfg.AdvertiseHTTP {
			supporters++
		}
		if v.Role != string(RolePrimary) || v.NodeID == myID {
			continue
		}
		if v.Epoch > myEpoch {
			successor, haveSuccessor = v, true
		} else if v.Epoch == myEpoch {
			// Equal-epoch rival: two concurrent elections minted the same
			// epoch from stale views (or a dual boot-primary
			// misconfiguration). Neither outranks the other by epoch, so
			// without a tiebreak both would stand forever — the
			// deterministic loser stands down, confirmed or not. The
			// loser cannot have acknowledged writes at this epoch: writes
			// require confirmation, confirmation requires a supporter
			// majority, and a follower streams from exactly one primary
			// at a time.
			if v.LastSeq > eng.LastSeq() || (v.LastSeq == eng.LastSeq() && v.NodeID > myID) {
				rivalWins = true
				successor, haveSuccessor = v, true
			}
		}
	}
	if eng.Fenced() || rivalWins {
		n.demote(ctx, successor, haveSuccessor)
		return
	}
	// Confirmation is continuous and supporter-based: leadership holds
	// only while this primary plus the followers CONNECTED TO IT at its
	// epoch form a majority of the configured cluster. Mere
	// reachability is not enough — two concurrent elections can each
	// reach a majority, but two disjoint supporter majorities cannot
	// exist.
	confirmed := supporters >= n.majority()
	n.mu.Lock()
	n.confirmed = confirmed
	if confirmed {
		n.lastErr = ""
	}
	n.mu.Unlock()
	if !confirmed {
		n.setErr(fmt.Sprintf("leadership unconfirmed: %d of %d members support this primary (majority %d)",
			supporters, n.cfg.ClusterSize, n.majority()))
	}
}

// stepFollower checks primary health over the heartbeat stream and,
// when the primary is gone, discovers a live one or stands for
// election.
func (n *Node) stepFollower(ctx context.Context) {
	n.mu.Lock()
	fol := n.fol
	n.mu.Unlock()
	if fol != nil {
		if age, ok := fol.HeartbeatAge(); ok && age < n.cfg.FailoverTimeout {
			return // the tail-heartbeat stream says the primary is alive
		}
	}
	views := n.probePeers(ctx)
	if v, ok := n.pickPrimary(views); ok {
		n.retarget(ctx, v)
		return
	}
	n.maybePromote(ctx, views)
}

// probePeers fetches every peer's /cluster concurrently; unreachable
// peers are simply absent from the result.
func (n *Node) probePeers(ctx context.Context) []ClusterInfo {
	type slot struct {
		ci ClusterInfo
		ok bool
	}
	slots := make([]slot, len(n.cfg.Peers))
	var wg sync.WaitGroup
	for i, peer := range n.cfg.Peers {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			if ci, err := FetchClusterInfo(ctx, n.hc, base); err == nil {
				slots[i] = slot{ci, true}
			}
		}(i, peer)
	}
	wg.Wait()
	views := make([]ClusterInfo, 0, len(slots))
	for _, s := range slots {
		if s.ok {
			views = append(views, s.ci)
		}
	}
	return views
}

// pickPrimary selects the live primary to follow: highest epoch not
// below our own, confirmed preferred, never one that would cost us
// history (see followable).
func (n *Node) pickPrimary(views []ClusterInfo) (ClusterInfo, bool) {
	var best ClusterInfo
	found := false
	for _, v := range views {
		if v.Role != string(RolePrimary) || !datasetCompatible(n.datasetID(), v.DatasetID) || !n.followable(v) {
			continue
		}
		if !found || v.Epoch > best.Epoch ||
			(v.Epoch == best.Epoch && v.Confirmed && !best.Confirmed) {
			best, found = v, true
		}
	}
	return best, found
}

// followable reports whether this member may follow primary v: never
// one below our epoch (deposed, and has not noticed), and never one
// with an older history than ours (newerHistory) unless it is
// confirmed at a higher epoch. Following it would wipe our newer
// frames, which may be quorum-acknowledged writes: an unconfirmed
// primary behind us was elected from views that missed them (a probe
// that failed while the old primary kept acknowledging with us), an
// equal-epoch one lost a double-mint race. Passing it over falls
// through to the election, which our newer history wins at a higher
// epoch. A confirmed higher-epoch primary has a supporter majority
// behind it, so what we hold past it was never acknowledged.
func (n *Node) followable(v ClusterInfo) bool {
	eng := n.liveEngine()
	if eng == nil {
		return true
	}
	myEpoch, mySeq := eng.Epoch(), eng.LastSeq()
	if v.Epoch < myEpoch {
		return false
	}
	return !newerHistory(eng.EpochAt(mySeq), mySeq, v.LastEpoch, v.LastSeq) || (v.Epoch > myEpoch && v.Confirmed)
}

// newerHistory reports whether a log ending at seq s1, written by epoch
// e1, is newer than one ending at (e2, s2): the later epoch wins, then
// the longer log. Length alone misleads once two sides of a partition
// have both written: the side that lost its majority keeps logging
// batches its quorum gate then refuses, and those must not outrank the
// acknowledged frames of the epoch that replaced it.
func newerHistory(e1, s1, e2, s2 uint64) bool {
	return e1 > e2 || (e1 == e2 && s1 > s2)
}

// maybePromote runs the election: with a majority of members reachable
// and no live primary, the follower with the newest fsynced history
// (newerHistory; node ID breaking ties) promotes itself under epoch
// max(seen)+1. Every reachable member computes the same winner, so only
// one promotes.
func (n *Node) maybePromote(ctx context.Context, views []ClusterInfo) {
	eng := n.liveEngine()
	if eng == nil {
		n.setErr("no local dataset: cannot stand for election")
		return
	}
	myID, mySeq, myEpoch := n.cfg.NodeID, eng.LastSeq(), eng.Epoch()
	if fb := eng.FencedBy(); fb > myEpoch {
		myEpoch = fb // never mint an epoch at or below one we know exists
	}
	reachable, maxEpoch := 1, myEpoch
	winID, winSeq, winEpoch := myID, mySeq, eng.EpochAt(mySeq)
	for _, v := range views {
		if !datasetCompatible(n.datasetID(), v.DatasetID) {
			continue
		}
		reachable++
		if v.Epoch > maxEpoch {
			maxEpoch = v.Epoch
		}
		if v.Role != string(RoleFollower) || v.DatasetID == "" {
			continue // empty members cannot win; primaries were handled earlier
		}
		if newerHistory(v.LastEpoch, v.LastSeq, winEpoch, winSeq) ||
			(v.LastEpoch == winEpoch && v.LastSeq == winSeq && v.NodeID > winID) {
			winID, winSeq, winEpoch = v.NodeID, v.LastSeq, v.LastEpoch
		}
	}
	if reachable < n.majority() {
		n.setErr(fmt.Sprintf("no election quorum: %d of %d members reachable (majority %d)",
			reachable, n.cfg.ClusterSize, n.majority()))
		return
	}
	n.elections.Add(1)
	mElections.Inc()
	if winID != myID {
		n.setErr(fmt.Sprintf("election: waiting for %s (seq %d) to promote", winID, winSeq))
		return
	}
	if err := n.promote(ctx, maxEpoch+1); err != nil {
		n.setErr(fmt.Sprintf("promotion failed: %v", err))
	}
}

// promote turns this member into the primary under newEpoch: stop the
// follower, reclaim the engine, persist the epoch advance, attach the
// shipper, flip the role. The epoch is durable before the first write
// can be accepted.
func (n *Node) promote(ctx context.Context, newEpoch uint64) error {
	eng := n.reclaimEngine()
	if eng == nil {
		return fmt.Errorf("replication: no open engine to promote (snapshot re-seed in progress)")
	}
	restore := func() {
		n.mu.Lock()
		n.eng = eng
		n.mu.Unlock()
	}
	if err := eng.AdvanceEpoch(newEpoch); err != nil {
		restore()
		return err
	}
	n.mu.Lock()
	if err := n.attachPrimary(eng); err != nil {
		n.mu.Unlock()
		restore()
		return err
	}
	n.eng = eng
	n.role = RolePrimary
	// Confirmation waits for a supporter majority (the next coordination
	// step): two concurrent elections can mint the same epoch from stale
	// views, and acknowledging writes before the survivors have actually
	// re-pointed here would let both winners ack. A singleton cluster
	// has no supporters to wait for.
	n.confirmed = n.cfg.ClusterSize == 1
	n.primHTTP = n.cfg.AdvertiseHTTP
	n.lastErr = ""
	n.mu.Unlock()
	n.promotions.Add(1)
	mPromotions.Inc()
	return nil
}

// demote turns a fenced (or outbid) primary back into a follower:
// announce msgDeposed to the sessions, tear the shipper down, keep the
// engine, and re-point at the successor when one is known.
func (n *Node) demote(ctx context.Context, successor ClusterInfo, haveSuccessor bool) {
	n.mu.Lock()
	prim, eng := n.prim, n.eng
	n.prim = nil
	n.role = RoleFollower
	n.confirmed = false
	if haveSuccessor {
		n.primHTTP = successor.HTTPAddr
	} else {
		n.primHTTP = ""
	}
	n.mu.Unlock()
	if prim != nil {
		epoch := uint64(0)
		if eng != nil {
			epoch = eng.FencedBy()
		}
		succHTTP := ""
		if haveSuccessor {
			succHTTP = successor.HTTPAddr
		}
		prim.Depose(epoch, succHTTP)
	}
	n.demotions.Add(1)
	mDemotions.Inc()
	if haveSuccessor && n.followable(successor) {
		n.retarget(ctx, successor)
	}
}

// retarget points the follower role at primary v, carrying the open
// engine over. A follower already pointed at v is left alone (its own
// reconnect loop is handling any transient).
func (n *Node) retarget(ctx context.Context, v ClusterInfo) {
	n.mu.Lock()
	fol := n.fol
	if fol != nil && fol.cfg.PrimaryAddr == v.ReplAddr {
		n.primHTTP = v.HTTPAddr
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	eng := n.reclaimEngine()
	f := NewFollower(FollowerConfig{
		Dir:           n.cfg.Dir,
		PrimaryAddr:   v.ReplAddr,
		Engine:        n.cfg.Engine,
		DialTimeout:   n.cfg.DialTimeout,
		RetryInterval: n.cfg.RetryInterval,
		Network:       n.cfg.Network,
		ID:            n.cfg.NodeID,
		// A demoted primary's un-replicated tail is a divergent branch
		// under a dead epoch; re-seeding is the designed recovery.
		WipeOnDiverge: true,
	})
	if eng != nil {
		f.AdoptEngine(eng)
	}
	fctx, fcancel := context.WithCancel(ctx)
	n.mu.Lock()
	n.fol, n.folCancel = f, fcancel
	n.primHTTP = v.HTTPAddr
	n.mu.Unlock()
	go f.Run(fctx)
}

// reclaimEngine takes the node's engine back for a role change. A
// running follower is stopped (cancel, wait on Done) and its engine
// detached; with no follower the node's own engine is taken. Nil when
// the follower was mid-re-seed.
func (n *Node) reclaimEngine() *engine.Engine {
	n.mu.Lock()
	fol, cancel, eng := n.fol, n.folCancel, n.eng
	n.fol, n.folCancel, n.eng = nil, nil, nil
	n.mu.Unlock()
	if fol == nil {
		return eng
	}
	cancel()
	<-fol.Done()
	return fol.DetachEngine()
}

// Promote forces promotion NOW — the POST /promote operator override.
// It skips the death detection and majority requirement (the operator
// is trusted to know the cluster state better than the probes do) but
// still outbids every reachable epoch, so fencing semantics hold.
func (n *Node) Promote() (uint64, error) {
	n.stepMu.Lock()
	defer n.stepMu.Unlock()
	n.mu.Lock()
	ctx := n.runCtx
	role := n.role
	n.mu.Unlock()
	if role == RolePrimary {
		return 0, fmt.Errorf("replication: already primary")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	eng := n.liveEngine()
	if eng == nil {
		return 0, fmt.Errorf("replication: no local dataset to promote")
	}
	maxEpoch := eng.Epoch()
	if fb := eng.FencedBy(); fb > maxEpoch {
		maxEpoch = fb
	}
	for _, v := range n.probePeers(ctx) {
		if datasetCompatible(n.datasetID(), v.DatasetID) && v.Epoch > maxEpoch {
			maxEpoch = v.Epoch
		}
	}
	newEpoch := maxEpoch + 1
	if err := n.promote(ctx, newEpoch); err != nil {
		return 0, err
	}
	return newEpoch, nil
}

// Engine returns the currently serving engine (nil mid-bootstrap).
// The pointer changes across re-seeds and role changes; serve traffic
// through a func() accessor (server.Config's Querier).
func (n *Node) Engine() *engine.Engine { return n.liveEngine() }

func (n *Node) liveEngine() *engine.Engine {
	n.mu.Lock()
	fol, eng := n.fol, n.eng
	n.mu.Unlock()
	if fol != nil {
		return fol.Engine()
	}
	return eng
}

// WriteGate is the HTTP layer's dynamic write admission: writes are
// allowed only on a confirmed, unfenced primary; otherwise the caller
// gets the best-known primary URL to redirect to ("" when unknown).
func (n *Node) WriteGate() (allow bool, redirect string) {
	n.mu.Lock()
	role, confirmed, eng, fol, primHTTP := n.role, n.confirmed, n.eng, n.fol, n.primHTTP
	n.mu.Unlock()
	if role == RolePrimary && confirmed && eng != nil && !eng.Fenced() {
		return true, ""
	}
	if fol != nil {
		if u := fol.PrimaryHTTPURL(); u != "" {
			return false, u
		}
	}
	if role == RolePrimary {
		return false, "" // unconfirmed and no better address known
	}
	return false, primHTTP
}

// Readiness implements /readyz: nil when this node is safe to serve
// from (a confirmed primary, or a connected follower within the lag
// bound).
func (n *Node) Readiness() error {
	n.mu.Lock()
	role, confirmed, eng, fol := n.role, n.confirmed, n.eng, n.fol
	lastErr := n.lastErr
	n.mu.Unlock()
	if role == RolePrimary {
		if eng == nil {
			return fmt.Errorf("engine not open")
		}
		if eng.Fenced() {
			return fmt.Errorf("fenced by epoch %d (deposed primary)", eng.FencedBy())
		}
		if !confirmed {
			if lastErr != "" {
				return fmt.Errorf("leadership unconfirmed: %s", lastErr)
			}
			return fmt.Errorf("leadership unconfirmed")
		}
		return nil
	}
	if fol == nil {
		if lastErr != "" {
			return fmt.Errorf("not following a primary: %s", lastErr)
		}
		return fmt.Errorf("not following a primary")
	}
	return fol.Readiness(n.cfg.ReadyLag)
}

// ClusterInfo assembles this node's /cluster document.
func (n *Node) ClusterInfo() ClusterInfo {
	n.mu.Lock()
	role, confirmed, fol, primHTTP := n.role, n.confirmed, n.fol, n.primHTTP
	n.mu.Unlock()
	ci := ClusterInfo{
		NodeID:      n.cfg.NodeID,
		Role:        string(role),
		Confirmed:   confirmed,
		HTTPAddr:    n.cfg.AdvertiseHTTP,
		ReplAddr:    n.ReplAddr(),
		PrimaryHTTP: primHTTP,
		Peers:       n.cfg.Peers,
		DatasetID:   n.datasetID(),
	}
	if eng := n.liveEngine(); eng != nil {
		ci.Epoch = eng.Epoch()
		ci.LastSeq = eng.LastSeq()
		ci.LastEpoch = eng.EpochAt(ci.LastSeq)
	}
	if fol != nil {
		st := fol.Stats()
		ci.Connected = st.Connected
		ci.LagSeqs = st.SeqDelta
		if st.PrimaryHTTP != "" {
			ci.PrimaryHTTP = st.PrimaryHTTP
		}
	}
	ci.Ready = n.Readiness() == nil
	return ci
}

// NodeStats is the coordinator's /stats replication block.
type NodeStats struct {
	NodeID     string         `json:"node_id"`
	Role       string         `json:"role"`
	Confirmed  bool           `json:"confirmed"`
	Epoch      uint64         `json:"epoch"`
	Elections  int64          `json:"elections"`
	Promotions int64          `json:"promotions"`
	Demotions  int64          `json:"demotions"`
	LastError  string         `json:"last_error,omitempty"`
	Primary    *PrimaryStats  `json:"primary,omitempty"`
	Follower   *FollowerStats `json:"follower,omitempty"`
}

// Stats snapshots the coordinator and its active role.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	role, confirmed, prim, fol, lastErr := n.role, n.confirmed, n.prim, n.fol, n.lastErr
	n.mu.Unlock()
	st := NodeStats{
		NodeID:     n.cfg.NodeID,
		Role:       string(role),
		Confirmed:  confirmed,
		Elections:  n.elections.Load(),
		Promotions: n.promotions.Load(),
		Demotions:  n.demotions.Load(),
		LastError:  lastErr,
	}
	if eng := n.liveEngine(); eng != nil {
		st.Epoch = eng.Epoch()
	}
	if prim != nil {
		ps := prim.Stats()
		st.Primary = &ps
	}
	if fol != nil {
		fs := fol.Stats()
		st.Follower = &fs
	}
	return st
}

func (n *Node) majority() int { return n.cfg.ClusterSize/2 + 1 }

func (n *Node) setErr(s string) {
	n.mu.Lock()
	n.lastErr = s
	n.mu.Unlock()
}

// datasetID returns (and caches once known) the member's DATASET_ID.
func (n *Node) datasetID() string {
	n.mu.Lock()
	id := n.dsID
	n.mu.Unlock()
	if id != "" {
		return id
	}
	id, _ = ReadDatasetID(n.cfg.Dir)
	if id != "" {
		n.mu.Lock()
		n.dsID = id
		n.mu.Unlock()
	}
	return id
}

// datasetCompatible reports whether two members can belong to the same
// cluster ("" means not-yet-seeded and is compatible with anything).
func datasetCompatible(a, b string) bool {
	return a == "" || b == "" || a == b
}
