// The standby side: a Follower maintains its own durable data
// directory, connects to the primary, bootstraps via snapshot transfer
// when needed, and replays the shipped frames through
// Engine.ApplyReplicated — acking each frame after its own WAL fsync.
// The engine it exposes serves read-only HTTP traffic.
package replication

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/storage"
	"repro/internal/wal"
)

// FollowerConfig tunes a Follower.
type FollowerConfig struct {
	// Dir is the follower's own data directory (its WAL, manifest and
	// generation files live here). May start empty: the first connect
	// seeds it with a snapshot transfer.
	Dir string
	// PrimaryAddr is the primary's -replicate-listen address.
	PrimaryAddr string
	// Engine is the base engine configuration (cache bounds, worker
	// pool). WAL, sync policy (fsync-per-batch — an ack
	// must mean stable storage) and writability are forced.
	Engine engine.Config
	// DialTimeout bounds one connection attempt (default 5s);
	// RetryInterval is the reconnect backoff base (default 250ms,
	// doubling to 5s, plus a deterministic per-follower jitter).
	DialTimeout   time.Duration
	RetryInterval time.Duration
	// ID identifies this follower for jitter derivation (default Dir):
	// after a primary restart, followers sharing an ID-less pure
	// exponential backoff would reconnect in lockstep thundering herds.
	// The jitter fraction is a deterministic hash of the ID, so a given
	// deployment's timing is reproducible.
	ID string
	// WipeOnDiverge lets the follower wipe its local dataset and
	// re-seed via snapshot when the primary refuses its resume point as
	// divergent history (a branch written under a dead fencing epoch).
	// Off by default: standalone deployments should surface divergence
	// to an operator; the failover coordinator turns it on because a
	// demoted primary's un-replicated tail is exactly such a branch.
	WipeOnDiverge bool
	// Network dials the primary (nil: TCP).
	Network Network
}

// Follower replicates a primary into a local durable engine.
type Follower struct {
	cfg    FollowerConfig
	done   chan struct{}
	jitter float64 // deterministic backoff jitter fraction in [0, 0.5)

	mu          sync.Mutex
	eng         *engine.Engine
	conn        net.Conn
	primaryHTTP string
	lastErr     string

	lastApplied    atomic.Uint64
	primaryTail    atomic.Uint64
	bytesReceived  atomic.Int64
	lastFrameNanos atomic.Int64
	lastBeatNanos  atomic.Int64 // any primary liveness signal: welcome, frame, tail
	snapshots      atomic.Int64
	reconnects     atomic.Int64
	folds          atomic.Int64
	connected      atomic.Bool
}

// NewFollower builds a follower; call Run to start it.
func NewFollower(cfg FollowerConfig) *Follower {
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 250 * time.Millisecond
	}
	if cfg.ID == "" {
		cfg.ID = cfg.Dir
	}
	if cfg.Network == nil {
		cfg.Network = tcpNetwork{}
	}
	f := &Follower{cfg: cfg, done: make(chan struct{}), jitter: JitterFraction(cfg.ID)}
	gaugeFollower.Store(f)
	return f
}

// JitterFraction maps an identity to a backoff jitter fraction in
// [0, 0.5) — an FNV-1a hash, so it is deterministic (reproducible test
// timing) yet spreads simultaneous retries across half a backoff
// period. Followers and internal/client both draw their jitter here.
func JitterFraction(id string) float64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return float64(h.Sum64()%1024) / 2048
}

// engineConfig is the follower's forced engine configuration: durable,
// writable (replication is the only writer — the HTTP layer rejects
// client writes), fsync-per-batch so acks certify stable storage.
func (f *Follower) engineConfig() engine.Config {
	cfg := f.cfg.Engine
	cfg.WAL = true
	cfg.ReadOnly = false
	cfg.WALSync = wal.SyncPolicy{Mode: wal.SyncBatch}
	return cfg
}

// Engine returns the live standby engine, nil until the first
// bootstrap completes. The pointer changes when a snapshot re-seed
// replaces the engine; serve traffic through a func() accessor
// (server.Config's Querier) rather than a captured pointer.
func (f *Follower) Engine() *engine.Engine {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.eng
}

// PrimaryHTTPURL returns the primary's advertised HTTP base URL
// ("" until a welcome has been received); the read-only HTTP layer
// points rejected writers here.
func (f *Follower) PrimaryHTTPURL() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.primaryHTTP
}

// WriteGate is the standby's write admission, Node.WriteGate's
// counterpart: writes are never taken here and go to the primary's
// HTTP URL, read per request. Before the first welcome names it the
// redirect is "", which the HTTP layer answers with a retryable 503.
func (f *Follower) WriteGate() (allow bool, redirect string) {
	return false, f.PrimaryHTTPURL()
}

// Done is closed when Run returns.
func (f *Follower) Done() <-chan struct{} { return f.done }

// WaitReady blocks until the follower has a serving engine (bootstrap
// complete) or ctx fires.
func (f *Follower) WaitReady(ctx context.Context) (*engine.Engine, error) {
	t := time.NewTicker(25 * time.Millisecond)
	defer t.Stop()
	for {
		if eng := f.Engine(); eng != nil {
			return eng, nil
		}
		select {
		case <-ctx.Done():
			f.mu.Lock()
			last := f.lastErr
			f.mu.Unlock()
			if last != "" {
				return nil, fmt.Errorf("replication: follower not ready: %v (last error: %s)", ctx.Err(), last)
			}
			return nil, fmt.Errorf("replication: follower not ready: %w", ctx.Err())
		case <-f.done:
			f.mu.Lock()
			last := f.lastErr
			f.mu.Unlock()
			return nil, fmt.Errorf("replication: follower stopped before becoming ready (last error: %s)", last)
		case <-t.C:
		}
	}
}

// Run connects, replays and reconnects until ctx fires. It owns the
// replication lifecycle; call Close afterwards to release the engine.
func (f *Follower) Run(ctx context.Context) {
	defer close(f.done)
	backoff := f.cfg.RetryInterval
	for {
		err := f.session(ctx)
		if ctx.Err() != nil {
			return
		}
		if err != nil {
			f.mu.Lock()
			f.lastErr = err.Error()
			f.mu.Unlock()
		}
		f.reconnects.Add(1)
		mReconnects.Inc()
		// Jittered exponential backoff: the deterministic per-follower
		// fraction desynchronizes a herd of standbys reconnecting after a
		// primary restart without making test timing nondeterministic.
		sleep := backoff + time.Duration(float64(backoff)*f.jitter)
		select {
		case <-ctx.Done():
			return
		case <-time.After(sleep):
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// DetachEngine hands the live engine to the caller and forgets it —
// the promotion path: the coordinator stops the follower (cancel Run's
// ctx, wait on Done), detaches the engine with its WAL, dir lock and
// replayed state intact, and rebuilds a Primary around it. Returns nil
// when the follower has no open engine (mid-re-seed).
func (f *Follower) DetachEngine() *engine.Engine {
	f.mu.Lock()
	defer f.mu.Unlock()
	eng := f.eng
	f.eng = nil
	return eng
}

// AdoptEngine seeds the follower with an already-open durable engine —
// the demotion path: a deposed primary keeps its engine (and dir lock)
// and hands it to a fresh follower pointed at the successor. Must be
// called before Run.
func (f *Follower) AdoptEngine(eng *engine.Engine) {
	f.mu.Lock()
	f.eng = eng
	f.mu.Unlock()
	if eng != nil {
		f.lastApplied.Store(eng.LastSeq())
	}
}

// HeartbeatAge reports how long ago the live session last heard from
// the primary (welcome, frame, or tail heartbeat); ok is false when no
// session is live — a dead connection's clock reads as absent, never
// as fresh.
func (f *Follower) HeartbeatAge() (age time.Duration, ok bool) {
	ns := f.lastBeatNanos.Load()
	if ns == 0 || !f.connected.Load() {
		return 0, false
	}
	return time.Since(time.Unix(0, ns)), true
}

// Close severs the connection (if Run is still draining) and closes the
// standby engine. Call after Run has returned.
func (f *Follower) Close() error {
	f.mu.Lock()
	conn, eng := f.conn, f.eng
	f.conn, f.eng = nil, nil
	f.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if eng != nil {
		return eng.Close()
	}
	return nil
}

// hasDataset reports whether dir holds an openable dataset: a manifest,
// or generation-0 default files that both pass their own trailer check.
// A transfer cut short leaves a partial tuples.dat and no manifest; that
// directory is fresh, so the next session asks for a snapshot instead of
// failing to open it at every reconnect.
func hasDataset(dir string) bool {
	if _, err := os.Stat(filepath.Join(dir, wal.ManifestName)); err == nil {
		return true
	}
	def := wal.DefaultManifest()
	return storage.VerifyChecksum(filepath.Join(dir, def.Tuples)) == nil &&
		storage.VerifyChecksum(filepath.Join(dir, def.Lists)) == nil
}

// session runs one connection lifecycle: handshake, optional snapshot
// bootstrap, then the frame stream until an error or ctx.
func (f *Follower) session(ctx context.Context) error {
	// Open (or reuse) the local engine before handshaking, so the
	// resume point reflects everything committed to the local log.
	f.mu.Lock()
	eng := f.eng
	f.mu.Unlock()
	if eng == nil && hasDataset(f.cfg.Dir) {
		var err error
		eng, err = engine.OpenDir(f.cfg.Dir, 0, f.engineConfig())
		if err != nil {
			return fmt.Errorf("open %s: %w", f.cfg.Dir, err)
		}
		f.mu.Lock()
		f.eng = eng
		f.mu.Unlock()
	}
	var lastSeq uint64
	if eng != nil {
		lastSeq = eng.LastSeq()
		f.lastApplied.Store(lastSeq)
	}
	id, err := ReadDatasetID(f.cfg.Dir)
	if err != nil {
		return err
	}

	dctx, cancel := context.WithTimeout(ctx, f.cfg.DialTimeout)
	conn, err := f.cfg.Network.Dial(dctx, f.cfg.PrimaryAddr)
	cancel()
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.conn = conn
	f.mu.Unlock()
	// Sever the blocking read when ctx fires.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchDone:
		}
	}()
	defer func() {
		f.connected.Store(false)
		// Zero the staleness clocks on disconnect: a dead session's last
		// heartbeat must never make /readyz or the proxy's least-lagged
		// routing read a stale "recently heard from the primary".
		f.lastFrameNanos.Store(0)
		f.lastBeatNanos.Store(0)
		f.mu.Lock()
		if f.conn == conn {
			f.conn = nil
		}
		f.mu.Unlock()
		conn.Close()
	}()

	h := hello{Proto: ProtoVersion, DatasetID: id, LastSeq: lastSeq}
	if eng != nil {
		h.Epoch = eng.Epoch()
		h.LastEpoch = eng.EpochAt(lastSeq)
	}
	raw, err := json.Marshal(h)
	if err != nil {
		return err
	}
	if err := writeMsg(conn, msgHello, raw); err != nil {
		return err
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	kind, payload, err := readControlMsg(conn)
	if err != nil {
		return err
	}
	conn.SetReadDeadline(time.Time{})
	if kind == msgError {
		msg := string(payload)
		// A divergence refusal means the local log holds frames written
		// under a dead epoch; only a re-seed can rejoin. With
		// WipeOnDiverge the follower does it itself — the next session
		// handshakes as a fresh follower and bootstraps via snapshot.
		if f.cfg.WipeOnDiverge && strings.Contains(msg, "diverged history") {
			if werr := f.wipeForReseed(); werr != nil {
				return fmt.Errorf("primary refused: %s (wipe for re-seed failed: %v)", msg, werr)
			}
			return fmt.Errorf("primary refused: %s (local dataset wiped for re-seed)", msg)
		}
		return fmt.Errorf("primary refused: %s", msg)
	}
	if kind != msgWelcome {
		return fmt.Errorf("expected welcome, got %q", kind)
	}
	var w welcome
	if err := json.Unmarshal(payload, &w); err != nil {
		return err
	}
	if w.Proto != ProtoVersion {
		return fmt.Errorf("primary speaks protocol %d, want %d", w.Proto, ProtoVersion)
	}
	if id != "" && w.DatasetID != id {
		return fmt.Errorf("dataset id mismatch: local %s, primary %s", id, w.DatasetID)
	}
	// Fencing: never follow a primary whose epoch is below our own —
	// it was deposed and has not noticed yet. Following it (or worse,
	// letting a snapshot wipe our newer state) would resurrect a dead
	// history. Otherwise adopt its epoch and timeline: they are
	// authoritative for the history we mirror from here on.
	if eng != nil {
		if local := eng.Epoch(); w.Epoch < local {
			return fmt.Errorf("primary epoch %d is older than local epoch %d: refusing deposed primary", w.Epoch, local)
		}
		if err := eng.AdoptEpoch(w.Epoch, w.Epochs); err != nil {
			return fmt.Errorf("adopt epoch %d: %w", w.Epoch, err)
		}
	}
	f.primaryTail.Store(w.TailSeq)
	f.mu.Lock()
	f.primaryHTTP = primaryHTTPURL(f.cfg.PrimaryAddr, w.HTTPAddr)
	f.mu.Unlock()

	if w.Mode == ModeSnapshot {
		if err := f.loadSnapshot(conn, w.DatasetID); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
	} else if f.Engine() == nil {
		return fmt.Errorf("primary offered %s but follower has no dataset", w.Mode)
	}

	// Streaming: the errors of earlier sessions are history.
	f.mu.Lock()
	f.lastErr = ""
	f.mu.Unlock()
	f.lastBeatNanos.Store(time.Now().UnixNano())
	f.connected.Store(true)
	ackBuf := make([]byte, 8)
	for {
		kind, payload, err := readMsg(conn)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		switch kind {
		case msgRecord:
			eng := f.Engine()
			if eng == nil {
				return fmt.Errorf("frame before snapshot completed")
			}
			seq, _, err := eng.ApplyReplicated(payload)
			if err != nil {
				return fmt.Errorf("apply frame: %w", err)
			}
			f.lastApplied.Store(seq)
			f.bytesReceived.Add(int64(len(payload)))
			f.lastFrameNanos.Store(time.Now().UnixNano())
			f.lastBeatNanos.Store(time.Now().UnixNano())
			if seq > f.primaryTail.Load() {
				f.primaryTail.Store(seq)
			}
			// The ack certifies the frame is fsynced into the local log
			// (ApplyReplicated appends under fsync-per-batch).
			binary.LittleEndian.PutUint64(ackBuf, seq)
			if err := writeMsg(conn, msgAck, ackBuf); err != nil {
				return err
			}
		case msgManifest:
			var man wal.Manifest
			if err := json.Unmarshal(payload, &man); err != nil {
				return fmt.Errorf("bad manifest: %w", err)
			}
			// Fold in lockstep: compact the local overlay + log now that
			// the primary has. Stream order guarantees every frame at or
			// below man.LastSeq was applied; guard anyway.
			if eng := f.Engine(); eng != nil && eng.LastSeq() >= man.LastSeq {
				if err := eng.Checkpoint(); err != nil {
					f.mu.Lock()
					f.lastErr = fmt.Sprintf("local checkpoint: %v", err)
					f.mu.Unlock()
				} else {
					f.folds.Add(1)
				}
			}
		case msgTail:
			f.lastBeatNanos.Store(time.Now().UnixNano())
			var t tail
			if err := json.Unmarshal(payload, &t); err == nil && t.TailSeq > f.primaryTail.Load() {
				f.primaryTail.Store(t.TailSeq)
			}
		case msgDeposed:
			// The primary learned it was fenced and is shutting down. Record
			// the newer epoch and re-point the write redirect at the
			// successor (when announced), then reconnect — the coordinator
			// or the next discovery round finds the new primary.
			var dep deposed
			if err := json.Unmarshal(payload, &dep); err != nil {
				return fmt.Errorf("bad deposed message: %w", err)
			}
			if eng := f.Engine(); eng != nil {
				eng.Fence(dep.Epoch)
			}
			if dep.HTTPAddr != "" {
				f.mu.Lock()
				f.primaryHTTP = primaryHTTPURL(f.cfg.PrimaryAddr, dep.HTTPAddr)
				f.mu.Unlock()
			}
			return fmt.Errorf("primary deposed by epoch %d", dep.Epoch)
		case msgError:
			return fmt.Errorf("primary: %s", payload)
		default:
			return fmt.Errorf("unexpected message %q mid-stream", kind)
		}
	}
}

// loadSnapshot re-seeds the local directory from a full transfer: the
// current engine (if any) is closed, the local dataset state wiped, the
// generation files and base manifest written durably, and a fresh
// engine opened at the manifest's sequence. A transfer that fails is
// wiped too, so no partial file is left for a later open to trip over.
func (f *Follower) loadSnapshot(conn net.Conn, datasetID string) (err error) {
	f.mu.Lock()
	eng := f.eng
	f.eng = nil
	f.mu.Unlock()
	if eng != nil {
		if err := eng.Close(); err != nil {
			return fmt.Errorf("close stale engine: %w", err)
		}
	}
	if err := wipeDataset(f.cfg.Dir); err != nil {
		return err
	}
	defer func() {
		if err != nil {
			wipeDataset(f.cfg.Dir)
		}
	}()

	received := map[string]bool{}
	var man wal.Manifest
	for {
		kind, payload, err := readMsg(conn)
		if err != nil {
			return err
		}
		if kind == msgError {
			return fmt.Errorf("primary: %s", payload)
		}
		if kind == msgManifest {
			if err := json.Unmarshal(payload, &man); err != nil {
				return fmt.Errorf("bad manifest: %w", err)
			}
			break
		}
		if kind != msgFileBegin {
			return fmt.Errorf("unexpected message %q during snapshot", kind)
		}
		var fb fileBegin
		if err := json.Unmarshal(payload, &fb); err != nil {
			return fmt.Errorf("bad file header: %w", err)
		}
		if err := validSnapshotName(fb.Name); err != nil {
			return err
		}
		if err := f.receiveFile(conn, fb); err != nil {
			return fmt.Errorf("receive %s: %w", fb.Name, err)
		}
		received[fb.Name] = true
	}
	if !received[man.Tuples] || !received[man.Lists] {
		return fmt.Errorf("manifest names %s + %s but transfer delivered %v", man.Tuples, man.Lists, received)
	}
	if err := man.Save(f.cfg.Dir); err != nil {
		return err
	}
	if err := writeDatasetID(f.cfg.Dir, datasetID); err != nil {
		return err
	}
	eng, err = engine.OpenDir(f.cfg.Dir, 0, f.engineConfig())
	if err != nil {
		return fmt.Errorf("open snapshot: %w", err)
	}
	f.mu.Lock()
	f.eng = eng
	f.mu.Unlock()
	f.lastApplied.Store(man.LastSeq)
	f.snapshots.Add(1)
	mSnapshotsLoaded.Inc()
	return nil
}

// receiveFile streams one snapshot file to disk and checks it against
// its own IRCRC001 trailer, so a truncated or corrupted file — in
// transit or already on the primary's disk — is rejected before the
// manifest is saved and the re-seeded engine swapped in.
func (f *Follower) receiveFile(conn net.Conn, fb fileBegin) error {
	path := filepath.Join(f.cfg.Dir, fb.Name)
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	var got int64
	for got < fb.Size {
		kind, payload, err := readMsg(conn)
		if err != nil {
			out.Close()
			return err
		}
		if kind != msgFileChunk {
			out.Close()
			return fmt.Errorf("expected chunk, got %q", kind)
		}
		if _, err := out.Write(payload); err != nil {
			out.Close()
			return err
		}
		got += int64(len(payload))
	}
	if got != fb.Size {
		out.Close()
		return fmt.Errorf("got %d bytes, want %d", got, fb.Size)
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	return storage.VerifyChecksum(path)
}

// validSnapshotName confines transferred files to plain dataset file
// names inside the follower directory.
func validSnapshotName(name string) error {
	if name == "" || name != filepath.Base(name) || strings.ContainsAny(name, "/\\") {
		return fmt.Errorf("replication: illegal snapshot file name %q", name)
	}
	switch name {
	case wal.ManifestName, wal.LogName, wal.LockName, DatasetIDName:
		return fmt.Errorf("replication: snapshot may not overwrite %q", name)
	}
	return nil
}

// wipeForReseed closes the local engine (if any) and wipes the dataset
// state so the next session bootstraps as a fresh follower.
func (f *Follower) wipeForReseed() error {
	f.mu.Lock()
	eng := f.eng
	f.eng = nil
	f.mu.Unlock()
	if eng != nil {
		if err := eng.Close(); err != nil {
			return fmt.Errorf("close diverged engine: %w", err)
		}
	}
	if err := wipeDataset(f.cfg.Dir); err != nil {
		return err
	}
	f.lastApplied.Store(0)
	return nil
}

// wipeDataset removes every piece of dataset state from dir, keeping
// only the lock file (flock identity must survive).
func wipeDataset(dir string) error {
	def := wal.DefaultManifest()
	for _, name := range []string{wal.ManifestName, wal.LogName, DatasetIDName, def.Tuples, def.Lists} {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	for _, pat := range []string{"tuples.g*.dat", "lists.g*.dat"} {
		matches, _ := filepath.Glob(filepath.Join(dir, pat))
		for _, p := range matches {
			if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
	}
	return wal.SyncDir(dir)
}

// primaryHTTPURL combines the replication address's host with the
// advertised HTTP address's port. A full URL (the coordinator
// advertises those — a successor primary may live on another host) is
// passed through verbatim.
func primaryHTTPURL(replAddr, httpAddr string) string {
	if httpAddr == "" {
		return ""
	}
	if strings.HasPrefix(httpAddr, "http://") || strings.HasPrefix(httpAddr, "https://") {
		return httpAddr
	}
	host, _, err := net.SplitHostPort(replAddr)
	if err != nil || host == "" {
		host = "localhost"
	}
	_, port, err := net.SplitHostPort(httpAddr)
	if err != nil || port == "" {
		return ""
	}
	return "http://" + net.JoinHostPort(host, port)
}

// FollowerStats is the standby's /stats replication block.
type FollowerStats struct {
	Role            string `json:"role"` // "follower"
	Primary         string `json:"primary"`
	PrimaryHTTP     string `json:"primary_http,omitempty"`
	Connected       bool   `json:"connected"`
	LastAppliedSeq  uint64 `json:"last_applied_seq"`
	PrimaryTailSeq  uint64 `json:"primary_tail_seq"`
	SeqDelta        uint64 `json:"seq_delta"`
	BytesReceived   int64  `json:"bytes_received"`
	LastFrameUnixNs int64  `json:"last_frame_unix_ns"`
	LastFrameAgeMs  int64  `json:"last_frame_age_ms"`
	SnapshotsLoaded int64  `json:"snapshots_loaded"`
	Reconnects      int64  `json:"reconnects"`
	LocalFolds      int64  `json:"local_folds"`
	Epoch           uint64 `json:"epoch"`
	LastError       string `json:"last_error,omitempty"`
}

// Stats snapshots the follower.
func (f *Follower) Stats() FollowerStats {
	applied := f.lastApplied.Load()
	tail := f.primaryTail.Load()
	var delta uint64
	if tail > applied {
		delta = tail - applied
	}
	st := FollowerStats{
		Role:            "follower",
		Primary:         f.cfg.PrimaryAddr,
		Connected:       f.connected.Load(),
		LastAppliedSeq:  applied,
		PrimaryTailSeq:  tail,
		SeqDelta:        delta,
		BytesReceived:   f.bytesReceived.Load(),
		LastFrameUnixNs: f.lastFrameNanos.Load(),
		SnapshotsLoaded: f.snapshots.Load(),
		Reconnects:      f.reconnects.Load(),
		LocalFolds:      f.folds.Load(),
	}
	if eng := f.Engine(); eng != nil {
		st.Epoch = eng.Epoch()
	}
	if st.LastFrameUnixNs != 0 {
		st.LastFrameAgeMs = time.Since(time.Unix(0, st.LastFrameUnixNs)).Milliseconds()
	}
	f.mu.Lock()
	st.PrimaryHTTP = f.primaryHTTP
	st.LastError = f.lastErr
	f.mu.Unlock()
	return st
}

// Readiness is the standby half of /readyz: nil when the follower has an
// engine, a live replication session and at most maxLag sequence numbers
// to catch up.
func (f *Follower) Readiness(maxLag uint64) error {
	st := f.Stats()
	if f.Engine() == nil {
		return fmt.Errorf("snapshot bootstrap in progress")
	}
	if !st.Connected {
		return fmt.Errorf("replication session down")
	}
	if st.SeqDelta > maxLag {
		return fmt.Errorf("replication lag %d exceeds the %d bound", st.SeqDelta, maxLag)
	}
	return nil
}
