// The primary side: a Primary implements engine.ReplicationSink,
// buffering every committed WAL frame the last checkpoint did not fold
// (what the log holds, so its memory footprint is bounded by the
// engine's checkpoint threshold) and fanning the stream out to follower
// sessions. It also implements the quorum commit gate.
package replication

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/wal"
)

// AckMode selects when Apply acknowledges a batch to its caller.
type AckMode int

const (
	// AckAsync (default): Apply returns once the batch is durable on
	// the primary; followers catch up in the background.
	AckAsync AckMode = iota
	// AckQuorum: Apply additionally blocks until max(1, ⌈n/2⌉) of the n
	// connected followers confirm an fsync of the batch's frame.
	AckQuorum
)

func (m AckMode) String() string {
	if m == AckQuorum {
		return "quorum"
	}
	return "async"
}

// ParseAckMode maps a flag value to an ack mode.
func ParseAckMode(s string) (AckMode, error) {
	switch s {
	case "", "async":
		return AckAsync, nil
	case "quorum":
		return AckQuorum, nil
	}
	return 0, fmt.Errorf("replication: ack mode %q is not async or quorum", s)
}

// PrimaryConfig tunes a Primary.
type PrimaryConfig struct {
	// HTTPAddr is the primary's HTTP listen address, advertised to
	// followers so their write rejections can point clients here.
	HTTPAddr string
	// AckMode selects async (default) or quorum acknowledgement.
	AckMode AckMode
	// AckTimeout bounds how long a quorum-mode Apply waits for follower
	// acks before failing with engine.ErrQuorum semantics (default 5s).
	AckTimeout time.Duration
	// HeartbeatInterval is the per-session tail heartbeat period
	// (default 500ms), the resolution of follower lag measurement.
	HeartbeatInterval time.Duration
}

// event is one element of the primary's ordered commit history: a
// shipped frame, or a checkpoint manifest.
type event struct {
	seq   uint64
	frame []byte       // nil → checkpoint event
	man   wal.Manifest // valid when frame == nil
}

// Primary ships a durable engine's commit stream to followers.
type Primary struct {
	eng *engine.Engine
	dir string
	id  string
	cfg PrimaryConfig

	mu   sync.Mutex
	cond *sync.Cond // broadcast on new events, acks, session churn, close
	// events holds every frame with seq > minStreamSeq plus interleaved
	// checkpoint manifests; firstIdx is events[0]'s absolute index.
	events        []event
	firstIdx      int64
	minStreamSeq  uint64 // frames at or below this are gone: snapshot territory
	tailSeq       uint64
	bufferedBytes int64
	sessions      map[*session]struct{}
	ln            net.Listener
	closed        bool

	snapshots      atomic.Int64
	quorumFailures atomic.Int64
	sessionsReaped atomic.Int64
}

// NewPrimary builds the shipper for an already-opened durable engine on
// dir and attaches it as the engine's replication sink — and, in
// quorum mode, Gate as its commit gate (otherwise the gate is cleared).
// Build it after engine.OpenDir and before the engine serves any
// traffic, so the in-memory history (seeded here from wal.log) stays
// contiguous with the live commit stream. Close detaches both.
func NewPrimary(eng *engine.Engine, dir string, cfg PrimaryConfig) (*Primary, error) {
	if !eng.Durable() {
		return nil, fmt.Errorf("replication: primary requires a durable engine (-wal)")
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 5 * time.Second
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 500 * time.Millisecond
	}
	id, err := EnsureDatasetID(dir)
	if err != nil {
		return nil, fmt.Errorf("replication: dataset id: %w", err)
	}
	man, ok, err := wal.LoadManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("replication: %w", err)
	}
	if !ok {
		man = wal.DefaultManifest()
	}
	p := &Primary{
		eng:          eng,
		dir:          dir,
		id:           id,
		cfg:          cfg,
		minStreamSeq: man.LastSeq,
		tailSeq:      man.LastSeq,
		sessions:     make(map[*session]struct{}),
	}
	p.cond = sync.NewCond(&p.mu)
	// Seed the history with the log's un-checkpointed frames: a
	// follower resuming anywhere at or past the manifest can stream.
	_, err = wal.ReplayFrames(filepath.Join(dir, wal.LogName), man.LastSeq, func(seq uint64, frame []byte) error {
		p.events = append(p.events, event{seq: seq, frame: frame})
		p.bufferedBytes += int64(len(frame))
		p.tailSeq = seq
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("replication: seed from %s: %w", wal.LogName, err)
	}
	eng.SetReplicationSink(p)
	if cfg.AckMode == AckQuorum {
		eng.SetCommitGate(p.Gate)
	} else {
		eng.SetCommitGate(nil)
	}
	return p, nil
}

// DatasetID returns the directory's replication identity.
func (p *Primary) DatasetID() string { return p.id }

// CommitFrame implements engine.ReplicationSink: called under the
// engine's write lock with each committed frame, in sequence order.
func (p *Primary) CommitFrame(seq uint64, frame []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.events = append(p.events, event{seq: seq, frame: frame})
	p.bufferedBytes += int64(len(frame))
	p.tailSeq = seq
	p.cond.Broadcast()
}

// CheckpointEvent implements engine.ReplicationSink. The shipped
// history is cut through man.LastSeq: the frames at or below it are
// folded into the generation files snapshot transfers now serve, and
// the earlier checkpoint events go with them. The frames after it, the
// batches that landed during the rewrite, stay ahead of this event, as
// they stay in the log. A session that had not yet sent everything
// dropped is killed — on reconnect its resume point predates
// minStreamSeq, which is exactly the snapshot-fallback condition.
func (p *Primary) CheckpointEvent(man wal.Manifest) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.events = append(p.events, event{seq: man.LastSeq, man: man})
	cut := 0 // the first kept event: the first frame past man.LastSeq, or this one
	for cut < len(p.events)-1 && (p.events[cut].frame == nil || p.events[cut].seq <= man.LastSeq) {
		cut++
	}
	for s := range p.sessions {
		if s.streamIdx >= 0 && s.streamIdx < p.firstIdx+int64(cut) {
			s.kill()
		}
	}
	p.events = append([]event(nil), p.events[cut:]...)
	p.firstIdx += int64(cut)
	p.minStreamSeq = man.LastSeq
	p.bufferedBytes = 0
	for _, ev := range p.events {
		p.bufferedBytes += int64(len(ev.frame))
	}
	p.cond.Broadcast()
}

// Gate is the quorum commit gate (engine.SetCommitGate): it blocks
// until max(1, ⌈n/2⌉) of the n streaming followers have acknowledged
// an fsync through seq, or AckTimeout passes. With no followers
// connected the quorum is unsatisfiable and the gate waits for one to
// arrive (up to the timeout) — a quorum-mode primary never silently
// degrades to async.
//
// When the gate times out, any streaming session whose ack did not
// advance during the whole window is reaped (killed and excluded from
// future quorum counts): a partitioned follower whose TCP connection
// is still nominally open would otherwise inflate n forever, turning
// every subsequent quorum-mode Apply into a guaranteed AckTimeout
// stall. A live-but-slow follower just reconnects and resumes.
func (p *Primary) Gate(seq uint64) error {
	defer observeQuorum(time.Now())
	deadline := time.Now().Add(p.cfg.AckTimeout)
	// The deadline broadcast must hold p.mu: an unlocked Broadcast can
	// fire in the window between the waiter's deadline check and its
	// cond.Wait, be lost, and leave the write blocked forever on a
	// quiet primary.
	timer := time.AfterFunc(p.cfg.AckTimeout, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer timer.Stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	entryAcked := make(map[*session]uint64)
	for s := range p.sessions {
		if s.streaming && !s.killed {
			entryAcked[s] = s.acked
		}
	}
	for {
		if p.closed {
			return fmt.Errorf("replication: primary closed")
		}
		n, got := 0, 0
		for s := range p.sessions {
			if !s.streaming || s.killed {
				continue
			}
			n++
			if s.acked >= seq {
				got++
			}
		}
		need := (n + 1) / 2
		if need < 1 {
			need = 1
		}
		if n > 0 && got >= need {
			return nil
		}
		if !time.Now().Before(deadline) {
			p.quorumFailures.Add(1)
			mQuorumFailures.Inc()
			reaped := 0
			for s := range p.sessions {
				if !s.streaming || s.killed || s.acked >= seq {
					continue
				}
				if a0, ok := entryAcked[s]; ok && s.acked == a0 {
					s.kill()
					reaped++
				}
			}
			if reaped > 0 {
				p.sessionsReaped.Add(int64(reaped))
				mSessionsReaped.Add(int64(reaped))
				p.cond.Broadcast()
			}
			return fmt.Errorf("replication: %d of the required %d follower acks for seq %d within %v (%d connected, %d reaped as silent)",
				got, need, seq, p.cfg.AckTimeout, n, reaped)
		}
		p.cond.Wait()
	}
}

// Serve accepts follower connections on ln until Close. It blocks; run
// it in its own goroutine.
func (p *Primary) Serve(ln net.Listener) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return fmt.Errorf("replication: primary closed")
	}
	p.ln = ln
	p.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			p.mu.Lock()
			closed := p.closed
			p.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go p.handle(conn)
	}
}

// Close stops accepting, severs every session, wakes any quorum
// waiter (which then fails) and detaches the shipper from the engine.
func (p *Primary) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	ln := p.ln
	for s := range p.sessions {
		s.kill()
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	// engine.mu orders before p.mu: detach only once p.mu is released.
	p.eng.SetReplicationSink(nil)
	p.eng.SetCommitGate(nil)
	if ln != nil {
		return ln.Close()
	}
	return nil
}

// Depose announces this primary's fencing to every connected follower
// — msgDeposed carries the observed newer epoch and, when known, the
// successor's HTTP address so followers re-point without a discovery
// round — then shuts the shipper down. Called by the coordinator when
// the node demotes itself after observing a higher epoch.
func (p *Primary) Depose(epoch uint64, successorHTTP string) {
	raw, err := json.Marshal(deposed{Epoch: epoch, HTTPAddr: successorHTTP})
	if err == nil {
		p.mu.Lock()
		sessions := make([]*session, 0, len(p.sessions))
		for s := range p.sessions {
			sessions = append(sessions, s)
		}
		p.mu.Unlock()
		for _, s := range sessions {
			_ = s.send(msgDeposed, raw) // best effort: Close severs anyway
		}
	}
	p.Close()
}

// session is one connected follower.
type session struct {
	p      *Primary
	conn   net.Conn
	wmu    sync.Mutex // serializes event-loop and heartbeat writes
	remote string

	// guarded by p.mu
	streamIdx   int64 // next event to send; -1 while handshaking/snapshotting
	acked       uint64
	streaming   bool // past handshake+snapshot, counted toward quorums
	killed      bool
	connectedAt time.Time
}

// kill severs the session; p.mu must be held.
func (s *session) kill() {
	s.killed = true
	s.conn.Close()
}

func (s *session) send(kind byte, payload []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return writeMsg(s.conn, kind, payload)
}

func (s *session) sendJSON(kind byte, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return s.send(kind, raw)
}

// fail reports a protocol error to the follower and gives up.
func (s *session) fail(msg string) {
	_ = s.send(msgError, []byte(msg))
	s.conn.Close()
}

// handle runs one follower session: handshake, optional snapshot,
// then the event stream. A reader goroutine consumes acks and a
// heartbeat goroutine reports the tail.
func (p *Primary) handle(conn net.Conn) {
	s := &session{p: p, conn: conn, remote: conn.RemoteAddr().String(), streamIdx: -1, connectedAt: time.Now()}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	kind, payload, err := readControlMsg(conn)
	if err != nil || kind != msgHello {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	var h hello
	if err := json.Unmarshal(payload, &h); err != nil {
		s.fail("bad hello")
		return
	}
	if h.Proto != ProtoVersion {
		s.fail(fmt.Sprintf("protocol version %d not supported (want %d)", h.Proto, ProtoVersion))
		return
	}
	if h.DatasetID != "" && h.DatasetID != p.id {
		s.fail(fmt.Sprintf("dataset id mismatch: follower has %s, primary serves %s — wipe the follower directory to re-seed it", h.DatasetID, p.id))
		return
	}
	// Fencing: a dialer that knows a newer epoch proves this primary was
	// deposed while it wasn't looking. Record the fence — Apply starts
	// refusing client writes immediately — and refuse the session; the
	// coordinator (or operator) demotes this node to follower.
	if myEpoch := p.eng.Epoch(); h.Epoch > myEpoch {
		p.eng.Fence(h.Epoch)
		s.fail(fmt.Sprintf("primary epoch %d deposed by epoch %d", myEpoch, h.Epoch))
		return
	}

	// Register before deciding the mode, so a concurrent checkpoint cut
	// either sees this session (and leaves streamIdx=-1 alone) or
	// happened before and is reflected in minStreamSeq.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		conn.Close()
		return
	}
	p.sessions[s] = struct{}{}
	snapshot := h.DatasetID == "" || h.LastSeq < p.minStreamSeq
	diverged := h.LastSeq > p.tailSeq
	tailSeq := p.tailSeq
	p.mu.Unlock()
	defer p.drop(s)

	if diverged {
		s.fail(fmt.Sprintf("follower is ahead of the primary (follower seq %d, primary tail %d): diverged history, wipe the follower directory", h.LastSeq, tailSeq))
		return
	}
	// Epoch-timeline divergence: the follower's sequence numbers fit
	// inside our history, but if its last frame was written under a
	// different epoch than the one our timeline assigns that sequence,
	// its log is a branch minted by a deposed primary — streaming from
	// LastSeq+1 would graft our history onto frames we never had. Only a
	// re-seed can fix it.
	if h.DatasetID != "" && h.LastSeq > 0 {
		if want := p.eng.EpochAt(h.LastSeq); want != h.LastEpoch {
			s.fail(fmt.Sprintf("follower seq %d was committed under epoch %d but this primary's timeline assigns it epoch %d: diverged history, wipe the follower directory", h.LastSeq, h.LastEpoch, want))
			return
		}
	}

	mode := ModeStream
	if snapshot {
		mode = ModeSnapshot
	}
	w := welcome{Proto: ProtoVersion, DatasetID: p.id, Mode: mode, HTTPAddr: p.cfg.HTTPAddr,
		TailSeq: tailSeq, Epoch: p.eng.Epoch(), Epochs: p.eng.EpochTimeline()}
	if err := s.sendJSON(msgWelcome, w); err != nil {
		conn.Close()
		return
	}

	resumeSeq := h.LastSeq
	if snapshot {
		man, err := p.sendSnapshot(s)
		if err != nil {
			conn.Close()
			return
		}
		resumeSeq = man.LastSeq
		p.snapshots.Add(1)
		mSnapshotsServed.Inc()
	}

	// Position the stream: the first retained event past resumeSeq.
	p.mu.Lock()
	if resumeSeq < p.minStreamSeq {
		// A checkpoint cut the history while the snapshot streamed
		// and the frames this follower now needs are gone. Re-seeding is
		// the follower's reconnect logic; tell it to come back.
		p.mu.Unlock()
		s.fail("snapshot superseded by a concurrent checkpoint, reconnect")
		return
	}
	idx := p.firstIdx
	for i, ev := range p.events {
		if ev.seq > resumeSeq {
			idx = p.firstIdx + int64(i)
			break
		}
		idx = p.firstIdx + int64(i) + 1
	}
	s.streamIdx = idx
	s.streaming = true
	p.cond.Broadcast()
	p.mu.Unlock()

	// Reader: acks only. A read error is how a dead follower is
	// detected even when no events are flowing, so it kills the
	// session (waking the event loop) and wakes quorum waiters.
	go func() {
		for {
			kind, payload, err := readControlMsg(conn)
			if err != nil {
				p.mu.Lock()
				s.kill()
				p.cond.Broadcast()
				p.mu.Unlock()
				return
			}
			if kind == msgAck && len(payload) == 8 {
				seq := binary.LittleEndian.Uint64(payload)
				p.mu.Lock()
				if seq > s.acked {
					s.acked = seq
					p.cond.Broadcast()
				}
				p.mu.Unlock()
			}
		}
	}()

	// Heartbeats.
	hbStop := make(chan struct{})
	defer close(hbStop)
	go func() {
		t := time.NewTicker(p.cfg.HeartbeatInterval)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case now := <-t.C:
				p.mu.Lock()
				ts := p.tailSeq
				p.mu.Unlock()
				if err := s.sendJSON(msgTail, tail{TailSeq: ts, UnixNanos: now.UnixNano()}); err != nil {
					conn.Close()
					return
				}
			}
		}
	}()

	// Event loop: ship history then follow the live tail.
	for {
		p.mu.Lock()
		for !p.closed && !s.killed && s.streamIdx >= p.firstIdx+int64(len(p.events)) {
			p.cond.Wait()
		}
		if p.closed || s.killed || s.streamIdx < p.firstIdx {
			p.mu.Unlock()
			conn.Close()
			return
		}
		ev := p.events[s.streamIdx-p.firstIdx]
		s.streamIdx++
		p.mu.Unlock()

		var err error
		if ev.frame != nil {
			err = s.send(msgRecord, ev.frame)
		} else {
			err = s.sendJSON(msgManifest, ev.man)
		}
		if err != nil {
			conn.Close()
			return
		}
	}
}

// sendSnapshot streams the live generation files and their manifest.
// The file handles are pinned by the engine (see OpenSnapshotFiles), so
// a checkpoint sweeping the generation mid-transfer cannot corrupt it.
func (p *Primary) sendSnapshot(s *session) (wal.Manifest, error) {
	man, tuples, lists, err := p.eng.OpenSnapshotFiles()
	if err != nil {
		return wal.Manifest{}, err
	}
	defer tuples.Close()
	defer lists.Close()
	if err := p.sendFile(s, man.Tuples, tuples); err != nil {
		return wal.Manifest{}, err
	}
	if err := p.sendFile(s, man.Lists, lists); err != nil {
		return wal.Manifest{}, err
	}
	if err := s.sendJSON(msgManifest, man); err != nil {
		return wal.Manifest{}, err
	}
	return man, nil
}

// sendFile ships one snapshot file through a chunk buffer, reading it
// once. The file is read, not mapped, so a snapshot leaves nothing of
// the generation in the primary's resident set; the follower checks
// what it received against the file's own trailer.
func (p *Primary) sendFile(s *session, name string, f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size := st.Size()
	if err := s.sendJSON(msgFileBegin, fileBegin{Name: name, Size: size}); err != nil {
		return err
	}
	buf := make([]byte, snapshotChunkBytes)
	var sent int64
	for sent < size {
		n := size - sent
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		if _, err := io.ReadFull(f, buf[:n]); err != nil {
			return err
		}
		if err := s.send(msgFileChunk, buf[:n]); err != nil {
			return err
		}
		mSnapshotBytes.Add(n)
		sent += n
	}
	return nil
}

// drop deregisters a session.
func (p *Primary) drop(s *session) {
	p.mu.Lock()
	delete(p.sessions, s)
	p.cond.Broadcast()
	p.mu.Unlock()
	s.conn.Close()
}

// FollowerInfo describes one connected follower in PrimaryStats.
type FollowerInfo struct {
	Remote        string `json:"remote"`
	AckedSeq      uint64 `json:"acked_seq"`
	Streaming     bool   `json:"streaming"`
	ConnectedUnix int64  `json:"connected_unix"`
}

// PrimaryStats is the primary's /stats replication block.
type PrimaryStats struct {
	Role            string         `json:"role"` // "primary"
	AckMode         string         `json:"ack_mode"`
	DatasetID       string         `json:"dataset_id"`
	TailSeq         uint64         `json:"tail_seq"`
	MinStreamSeq    uint64         `json:"min_stream_seq"`
	BufferedRecords int            `json:"buffered_records"`
	BufferedBytes   int64          `json:"buffered_bytes"`
	Followers       []FollowerInfo `json:"followers"`
	SnapshotsServed int64          `json:"snapshots_served"`
	QuorumFailures  int64          `json:"quorum_failures"`
	Epoch           uint64         `json:"epoch"`
	SessionsReaped  int64          `json:"sessions_reaped"`
}

// Stats snapshots the shipper.
func (p *Primary) Stats() PrimaryStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PrimaryStats{
		Role:            "primary",
		AckMode:         p.cfg.AckMode.String(),
		DatasetID:       p.id,
		TailSeq:         p.tailSeq,
		MinStreamSeq:    p.minStreamSeq,
		BufferedBytes:   p.bufferedBytes,
		SnapshotsServed: p.snapshots.Load(),
		QuorumFailures:  p.quorumFailures.Load(),
		Epoch:           p.eng.Epoch(),
		SessionsReaped:  p.sessionsReaped.Load(),
	}
	for _, ev := range p.events {
		if ev.frame != nil {
			st.BufferedRecords++
		}
	}
	for s := range p.sessions {
		st.Followers = append(st.Followers, FollowerInfo{
			Remote:        s.remote,
			AckedSeq:      s.acked,
			Streaming:     s.streaming,
			ConnectedUnix: s.connectedAt.Unix(),
		})
	}
	return st
}
