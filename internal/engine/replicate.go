// Replication hooks: the engine ends of the log-shipping subsystem
// (internal/replication). The engine itself stays transport-agnostic —
// it only exposes the commit stream and accepts a replicated apply
// path:
//
//   - On a primary, a ReplicationSink observes every committed batch
//     (the exact WAL frame, in sequence order) and every checkpoint
//     publication, both delivered under the engine's write lock so the
//     event order a shipper sees IS the log order. A commit gate, when
//     set, lets the shipper block Apply until followers have
//     acknowledged the batch (quorum ack mode).
//   - On a standby, ApplyReplicated appends a received frame verbatim
//     to its own WAL and replays it through the same overlay-mutation
//     and region-certified cache-invalidation path live Apply uses,
//     asserting sequence contiguity, so the standby's log and served
//     state are bit-identical to the primary's at every acknowledged
//     sequence number.
//
// Lock ordering: the engine's mu is always taken BEFORE any replication
// lock (sink callbacks run under mu; the shipper must not call back
// into the engine while holding its own lock, except read-only
// accessors documented as lock-free). The commit gate runs with mu
// RELEASED, so a primary waiting for follower acks never stalls
// concurrent queries.
package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/wal"
)

// ErrQuorum tags Apply failures in quorum ack mode: the batch is
// committed to the primary's log and overlay (and will reach followers
// when they catch up), but the configured number of followers did not
// confirm an fsync in time, so the caller must NOT treat the write as
// replication-durable. The mutation itself is not rolled back —
// retrying the batch would double-apply it.
var ErrQuorum = errors.New("replication quorum not reached")

// ReplicationSink observes a durable engine's commit stream. Both
// methods are invoked under the engine's write lock, in commit order;
// implementations must be fast and must not call back into the engine.
type ReplicationSink interface {
	// CommitFrame delivers one committed batch as the exact frame
	// appended to the WAL (wal.EncodeRecord encoding). Frames arrive in
	// strictly increasing, gap-free sequence order.
	CommitFrame(seq uint64, frame []byte)
	// CheckpointEvent delivers a published checkpoint manifest once the
	// WAL is cut: every record at or below man.LastSeq is folded into
	// the manifest's files and gone from the log, which keeps only the
	// frames after it (batches that landed during the rewrite, already
	// delivered through CommitFrame).
	CheckpointEvent(man wal.Manifest)
}

// SetReplicationSink attaches (or detaches, with nil) the primary-side
// shipper. The write lock orders the attachment against in-flight
// Apply batches, so a standby promoted to primary mid-stream can
// attach a shipper to a live engine: batches applied before the sink
// is attached are only visible to it through the WAL file.
func (e *Engine) SetReplicationSink(sink ReplicationSink) {
	e.mu.Lock()
	e.replSink = sink
	e.mu.Unlock()
}

// SetCommitGate attaches (or detaches, with nil) the quorum-ack gate:
// Apply calls it with the batch's sequence number after the batch is
// committed locally and the write lock is released, and propagates its
// error (wrapped in ErrQuorum semantics) to the caller. Apply captures
// the gate under the write lock, so attachment is safe on a live
// engine.
func (e *Engine) SetCommitGate(gate func(seq uint64) error) {
	e.mu.Lock()
	e.commitGate = gate
	e.mu.Unlock()
}

// LastSeq returns the sequence number of the most recent committed
// batch (0 when nothing was ever applied). Durable engines only.
func (e *Engine) LastSeq() uint64 {
	if e.dur == nil {
		return 0
	}
	return e.dur.log.LastSeq()
}

// ApplyReplicated applies one frame received from a replication stream
// to a standby engine and returns its sequence number. The frame is
// decoded once (wal.DecodeRecord checks its length, CRC and op kinds)
// and appended verbatim to the standby's own WAL (fsynced per the
// engine's sync policy — quorum followers use fsync-per-batch, so a
// sent ack means the frame is on stable storage), then applied through
// the identical overlay-mutation and region-certified
// cache-invalidation path live Apply uses. Per-op failures are skipped
// exactly as recovery replay skips them (the mutation code is
// deterministic, so they failed identically on the primary), which is
// what makes the standby's state bit-identical to the primary's at seq.
//
// The stream's sequence discipline is enforced: the frame must carry
// exactly the engine's next sequence number. A smaller seq is a
// duplicate delivery (a reconnect race) and is skipped without error; a
// larger one is a gap, which the log refuses — the follower must
// resync. Unlike Apply, ApplyReplicated never triggers checkpoint
// compaction (standbys compact in lockstep with the primary's
// checkpoint events) and never feeds a replication sink (no cascading
// replication).
func (e *Engine) ApplyReplicated(frame []byte) (uint64, ApplyResult, error) {
	if e.dur == nil {
		return 0, ApplyResult{}, fmt.Errorf("engine: ApplyReplicated requires a durable engine (OpenDir with Config.WAL)")
	}
	if !e.mutable {
		return 0, ApplyResult{}, fmt.Errorf("engine: %w", ErrImmutable)
	}
	seq, wops, err := wal.DecodeRecord(frame)
	if err != nil {
		return 0, ApplyResult{}, fmt.Errorf("engine: replicated frame: %w", err)
	}
	if len(wops) == 0 {
		return seq, ApplyResult{}, fmt.Errorf("engine: empty replicated batch: %w", ErrInvalid)
	}
	ops := engineOps(wops)
	e.mu.Lock()
	defer e.mu.Unlock()
	if seq < e.dur.log.NextSeq() {
		return seq, ApplyResult{}, nil // duplicate delivery: already committed here
	}
	if err := e.dur.log.AppendEncoded(frame); err != nil {
		return seq, ApplyResult{}, fmt.Errorf("engine: wal append: %w", err)
	}
	return seq, e.runOpsLocked(ops), nil
}

// OpenSnapshotFiles opens the live generation's tuple and list files
// for a snapshot transfer, pinned against concurrent checkpoints: the
// read lock excludes the checkpoint publish phase, so the returned
// manifest and file handles are mutually consistent, and POSIX unlink
// semantics keep the handles readable even if a later checkpoint sweeps
// the generation while the transfer streams. The snapshot is the state
// at man.LastSeq; the caller streams frames after that from its own
// retained history. The caller owns (and must close) both files.
func (e *Engine) OpenSnapshotFiles() (man wal.Manifest, tuples, lists *os.File, err error) {
	if e.dur == nil {
		return wal.Manifest{}, nil, nil, fmt.Errorf("engine: snapshot requires a durable engine")
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	man, ok, err := wal.LoadManifest(e.dur.dir)
	if err != nil {
		return wal.Manifest{}, nil, nil, fmt.Errorf("engine: %w", err)
	}
	if !ok {
		man = wal.DefaultManifest()
	}
	tuples, err = os.Open(filepath.Join(e.dur.dir, man.Tuples))
	if err != nil {
		return wal.Manifest{}, nil, nil, err
	}
	lists, err = os.Open(filepath.Join(e.dur.dir, man.Lists))
	if err != nil {
		tuples.Close()
		return wal.Manifest{}, nil, nil, err
	}
	return man, tuples, lists, nil
}
