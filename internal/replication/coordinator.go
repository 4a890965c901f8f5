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
//     (which must be a majority of the membership, AdvertiseHTTP plus
//     Peers), the follower with the newest fsynced history wins, node
//     ID breaking ties. Every reachable member computes the same winner
//     from the same views; only the winner promotes itself.
//   - Promotion advances the fencing epoch to the member's next ballot
//     above every epoch observed (Node.ballot) and persists it
//     (engine.AdvanceEpoch) before serving a single write.
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
//     a majority of the membership. A follower streams from exactly
//     one primary, so two primaries can never hold disjoint supporter
//     majorities simultaneously.
//  2. (I1) Promotion requires a majority of members reachable, and a fresh
//     primary starts UNCONFIRMED (unless the cluster is a singleton):
//     it serves 409/503, never a write, until a probe round shows a
//     supporter majority.
//  3. (I1) The epoch is persisted in the MANIFEST before the promoted
//     primary accepts its first write, and every handshake carries
//     epochs both ways, so any contact between a stale primary and the
//     rest of the cluster fences the stale one (engine.Fence).
//  4. (I5) An epoch has at most one primary: members mint epochs from
//     disjoint ballots (Node.ballot), a boot primary included, so an
//     (epoch, seq) pair names one frame and the handshake's check of
//     the epoch at last_seq tells two histories apart.
//
// No acknowledged write is lost (I2) because a quorum-mode primary
// acknowledges only once it and its ackers form a majority of the
// membership (Primary.Gate's floor), the election picks the
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
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
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
	// Peers are the OTHER members' AdvertiseHTTP base URLs. With
	// AdvertiseHTTP they are the membership, at most 64 members:
	// majority math and the ballot index read it, and every member must
	// be configured with the same one.
	Peers []string
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
	foreign   string // the last probe round's peers of another membership
	dsID      string // cached DATASET_ID

	members []string // the sorted membership: AdvertiseHTTP plus Peers
	index   uint64   // this member's position in members, its ballots' low bits

	elections  atomic.Int64
	promotions atomic.Int64
	demotions  atomic.Int64
}

// NewNode opens the member's engine (when the directory holds a
// dataset), binds the replication listener and assumes the boot role.
// Call Run to start coordinating.
func NewNode(cfg NodeConfig) (*Node, error) {
	cfg.setDefaults()
	members := sortedMembers(cfg.AdvertiseHTTP, cfg.Peers)
	switch {
	case len(members) > 1<<ballotBits:
		return nil, fmt.Errorf("replication: %d members; a cluster has at most %d", len(members), 1<<ballotBits)
	case slices.Contains(cfg.Peers, cfg.AdvertiseHTTP):
		return nil, fmt.Errorf("replication: %s lists itself among its peers", cfg.AdvertiseHTTP)
	case len(slices.Compact(slices.Clone(members))) < len(members):
		return nil, fmt.Errorf("replication: a peer is listed twice in %v", cfg.Peers)
	}
	n := &Node{
		cfg:     cfg,
		runCtx:  context.Background(), // Run's, once it runs
		done:    make(chan struct{}),
		hc:      &http.Client{Timeout: cfg.FailoverTimeout, Transport: cfg.Network.Transport()},
		role:    RoleFollower,
		members: members,
		index:   uint64(slices.Index(members, cfg.AdvertiseHTTP)),
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
	if n.cfg.StartPrimary {
		n.bootBallot(ctx)
	}
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

// bootBallot gives a boot primary an epoch of its own before it accepts
// a session: the one its directory holds is 0 on every fresh member, or
// another member's if it once followed that member, and an epoch has
// one writer. A peer at a higher epoch fences it instead, and the first
// step demotes it.
func (n *Node) bootBallot(ctx context.Context) {
	n.stepMu.Lock()
	defer n.stepMu.Unlock()
	eng, views := n.liveEngine(), n.probePeers(ctx)
	for _, v := range views {
		eng.Fence(v.Epoch)
	}
	if !eng.Fenced() {
		if err := eng.AdvanceEpoch(n.ballot(highestEpoch(eng, views))); err != nil {
			n.demote(ctx, ClusterInfo{})
			n.setErr(fmt.Sprintf("boot ballot failed: %v", err))
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
// demotion) and re-evaluates the supporter majority that confirms
// leadership.
func (n *Node) stepPrimary(ctx context.Context) {
	n.mu.Lock()
	eng := n.eng
	n.mu.Unlock()
	if eng == nil {
		return // shutting down
	}
	views := n.probePeers(ctx)
	myEpoch := eng.Epoch()
	var successor ClusterInfo
	supporters := 1 // self
	for _, v := range views {
		if v.Epoch > myEpoch {
			eng.Fence(v.Epoch)
			if v.Role == string(RolePrimary) {
				successor = v
			}
		}
		if v.Role == string(RoleFollower) && v.Connected &&
			v.Epoch == myEpoch && v.PrimaryHTTP == n.cfg.AdvertiseHTTP {
			supporters++
		}
	}
	if eng.Fenced() {
		n.demote(ctx, successor)
		return
	}
	// Confirmation is continuous and supporter-based: leadership holds
	// only while this primary plus the followers CONNECTED TO IT at its
	// epoch form a majority of the membership. Mere reachability is not
	// enough — two concurrent elections can each reach a majority, but
	// two disjoint supporter majorities cannot exist.
	n.mu.Lock()
	n.confirmed, n.lastErr = supporters >= n.majority(), ""
	if !n.confirmed {
		n.lastErr = fmt.Sprintf("leadership unconfirmed: %d of %d members support this primary (majority %d)",
			supporters, len(n.members), n.majority())
	}
	n.mu.Unlock()
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

// probePeers fetches every peer's /cluster concurrently. Unreachable
// peers are absent from the result, and so are peers that cannot be in
// this cluster: another dataset, or another membership (its ballots and
// majorities are not ours), which the Stats' last_error names.
func (n *Node) probePeers(ctx context.Context) []ClusterInfo {
	slots := make([]*ClusterInfo, len(n.cfg.Peers))
	var wg sync.WaitGroup
	for i, peer := range n.cfg.Peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ci, err := FetchClusterInfo(ctx, n.hc, peer); err == nil {
				slots[i] = &ci
			}
		}()
	}
	wg.Wait()
	views := make([]ClusterInfo, 0, len(slots))
	dsID, foreign := n.datasetID(), ""
	for _, v := range slots {
		switch {
		case v == nil || dsID != "" && v.DatasetID != "" && v.DatasetID != dsID: // "": not yet seeded
		case !slices.Equal(sortedMembers(v.HTTPAddr, v.Peers), n.members):
			foreign += fmt.Sprintf("; ignoring %s: membership %v is not ours", v.HTTPAddr, sortedMembers(v.HTTPAddr, v.Peers))
		default:
			views = append(views, *v)
		}
	}
	n.mu.Lock()
	n.foreign = foreign
	n.mu.Unlock()
	return views
}

// pickPrimary selects the live primary to follow: highest epoch not
// below our own, confirmed preferred, never one that would cost us
// history (see followable).
func (n *Node) pickPrimary(views []ClusterInfo) (ClusterInfo, bool) {
	var best ClusterInfo
	found := false
	for _, v := range views {
		if v.Role != string(RolePrimary) || !n.followable(v) {
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
// that failed while the old primary kept acknowledging with us).
// Passing it over falls through to the election, which our newer
// history wins at a higher epoch. A confirmed higher-epoch primary has a supporter majority
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
// (newerHistory; node ID breaking ties) promotes itself under its next
// ballot. Every reachable member computes the same winner, so only one
// promotes.
func (n *Node) maybePromote(ctx context.Context, views []ClusterInfo) {
	eng := n.liveEngine()
	if eng == nil {
		n.setErr("no local dataset: cannot stand for election")
		return
	}
	myID, mySeq := n.cfg.NodeID, eng.LastSeq()
	reachable := 1 + len(views)
	winID, winSeq, winEpoch := myID, mySeq, eng.EpochAt(mySeq)
	for _, v := range views {
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
			reachable, len(n.members), n.majority()))
		return
	}
	n.elections.Add(1)
	mElections.Inc()
	if winID != myID {
		n.setErr(fmt.Sprintf("election: waiting for %s (seq %d) to promote", winID, winSeq))
		return
	}
	if _, err := n.promote(ctx, views); err != nil {
		n.setErr(fmt.Sprintf("promotion failed: %v", err))
	}
}

// promote turns this member into the primary under its next ballot
// above every epoch it knows of (its own, its fence, the views'): stop
// the follower, reclaim the engine, persist the epoch advance, attach
// the shipper, flip the role. The epoch is durable before the first
// write can be accepted.
func (n *Node) promote(ctx context.Context, views []ClusterInfo) (uint64, error) {
	eng := n.reclaimEngine()
	if eng == nil {
		return 0, fmt.Errorf("replication: no open engine to promote (snapshot re-seed in progress)")
	}
	restore := func() {
		n.mu.Lock()
		n.eng = eng
		n.mu.Unlock()
	}
	epoch := n.ballot(highestEpoch(eng, views))
	if err := eng.AdvanceEpoch(epoch); err != nil {
		restore()
		return 0, err
	}
	n.mu.Lock()
	if err := n.attachPrimary(eng); err != nil {
		n.mu.Unlock()
		restore()
		return 0, err
	}
	n.eng = eng
	n.role = RolePrimary
	// Confirmation waits for a supporter majority (the next coordination
	// step). A singleton cluster has no supporters to wait for.
	n.confirmed = len(n.members) == 1
	n.primHTTP = n.cfg.AdvertiseHTTP
	n.lastErr = ""
	n.mu.Unlock()
	n.promotions.Add(1)
	mPromotions.Inc()
	return epoch, nil
}

// demote turns a fenced (or outbid) primary back into a follower:
// announce msgDeposed to the sessions, tear the shipper down, keep the
// engine, and re-point at the successor when one is known (a zero
// successor: none).
func (n *Node) demote(ctx context.Context, successor ClusterInfo) {
	n.mu.Lock()
	prim, eng := n.prim, n.eng
	n.prim = nil
	n.role = RoleFollower
	n.confirmed = false
	n.primHTTP = successor.HTTPAddr
	n.mu.Unlock()
	if prim != nil && eng != nil {
		prim.Depose(eng.FencedBy(), successor.HTTPAddr)
	}
	n.demotions.Add(1)
	mDemotions.Inc()
	if successor.HTTPAddr != "" && n.followable(successor) {
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
	ctx, role := n.runCtx, n.role
	n.mu.Unlock()
	if role == RolePrimary {
		return 0, fmt.Errorf("replication: already primary")
	}
	if n.liveEngine() == nil {
		return 0, fmt.Errorf("replication: no local dataset to promote")
	}
	return n.promote(ctx, n.probePeers(ctx))
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
			return errors.New(cmp.Or(lastErr, "leadership unconfirmed")) // stepPrimary's says why
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
	role, confirmed, prim, fol, lastErr := n.role, n.confirmed, n.prim, n.fol, n.lastErr+n.foreign
	n.mu.Unlock()
	st := NodeStats{
		NodeID:     n.cfg.NodeID,
		Role:       string(role),
		Confirmed:  confirmed,
		Elections:  n.elections.Load(),
		Promotions: n.promotions.Load(),
		Demotions:  n.demotions.Load(),
		LastError:  strings.TrimPrefix(lastErr, "; "),
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

func (n *Node) majority() int { return len(n.members)/2 + 1 }

// ballotBits is how many low bits of an epoch name the member that
// minted it, so a cluster has at most 64 members.
const ballotBits = 6

// ballot returns the smallest epoch above seen whose low ballotBits
// bits are this member's index: members draw their epochs from
// disjoint sets, as Paxos proposers draw proposal numbers, so no two
// members ever mint the same epoch.
func (n *Node) ballot(seen uint64) uint64 {
	b := seen&^(1<<ballotBits-1) | n.index
	if b <= seen {
		b += 1 << ballotBits
	}
	return b
}

// highestEpoch is the highest epoch this member knows exists: its own,
// the one that fenced it, and every view's. A ballot above it outbids
// every live primary.
func highestEpoch(eng *engine.Engine, views []ClusterInfo) uint64 {
	e := max(eng.Epoch(), eng.FencedBy())
	for _, v := range views {
		e = max(e, v.Epoch)
	}
	return e
}

// sortedMembers is the membership a member with address self and peers
// is configured with.
func sortedMembers(self string, peers []string) []string {
	m := append([]string{self}, peers...)
	slices.Sort(m)
	return m
}

func (n *Node) setErr(s string) {
	n.mu.Lock()
	n.lastErr = s
	n.mu.Unlock()
}

// datasetID returns (and caches once known) the member's DATASET_ID.
func (n *Node) datasetID() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.dsID == "" {
		n.dsID, _ = ReadDatasetID(n.cfg.Dir)
	}
	return n.dsID
}
