// Fencing: the engine side of split-brain prevention. Every promotion
// of a standby to primary advances the dataset's fencing epoch, and the
// promotion timeline (which epoch committed which sequence range) is
// persisted in the MANIFEST alongside the generation files. A deposed
// primary that comes back learns of the newer epoch through the
// replication handshake (or a coordinator probe), records it with
// Fence, and from then on refuses client writes with ErrFenced until it
// has re-joined the cluster as a follower and adopted the new epoch.
//
// The timeline exists because sequence numbers alone cannot detect
// divergence: a deposed primary may hold frames whose sequence numbers
// a new primary later re-used with different contents. Comparing the
// epoch that owns a follower's last frame against the primary's
// timeline (EpochAt) distinguishes a true log prefix from a divergent
// branch written under a dead epoch.
package engine

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/wal"
)

// ErrFenced tags Apply failures on a deposed primary: a newer fencing
// epoch has been observed, so this node must not accept client writes
// (they could never be replicated and would diverge from the cluster).
// Transports map it to 409 with a redirect to the current primary.
var ErrFenced = errors.New("node fenced by a newer primary epoch")

// Epoch returns the node's current fencing epoch (0 until the first
// promotion anywhere in the cluster).
func (e *Engine) Epoch() uint64 { return e.epoch.Load() }

// FencedBy returns the highest foreign epoch this node has observed
// (0 when none).
func (e *Engine) FencedBy() uint64 { return e.fencedBy.Load() }

// Fenced reports whether a newer epoch than the node's own has been
// observed — i.e. whether Apply currently refuses writes.
func (e *Engine) Fenced() bool { return e.fencedBy.Load() > e.epoch.Load() }

// Fence records an observed foreign epoch. Once a strictly higher epoch
// than the node's own is recorded, Apply refuses client writes with
// ErrFenced; ApplyReplicated still works, so the node can rejoin as a
// follower. Recording an epoch at or below the highest already seen is
// a no-op; the fence lifts when the node adopts or advances past it.
func (e *Engine) Fence(epoch uint64) {
	for {
		cur := e.fencedBy.Load()
		if epoch <= cur || e.fencedBy.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// EpochAt returns the fencing epoch that owns the frame at seq per the
// persisted promotion timeline (0 before the first promotion).
func (e *Engine) EpochAt(seq uint64) uint64 {
	e.epochsMu.Lock()
	defer e.epochsMu.Unlock()
	return wal.EpochAt(e.epochs, seq)
}

// EpochTimeline returns a copy of the promotion timeline.
func (e *Engine) EpochTimeline() []wal.EpochStart {
	e.epochsMu.Lock()
	defer e.epochsMu.Unlock()
	out := make([]wal.EpochStart, len(e.epochs))
	copy(out, e.epochs)
	return out
}

// AdvanceEpoch promotes this node's history to newEpoch: frames from
// LastSeq()+1 on belong to the new epoch. The timeline entry and the
// epoch are persisted in the MANIFEST before the call returns, so a
// crash immediately after promotion still comes back knowing it is the
// epoch-newEpoch primary; a failed save leaves both as they were.
// newEpoch must exceed both the current epoch and any observed foreign
// epoch (a promotion that does not outbid a known-live epoch would mint
// a second primary). An epoch that owns no frame — the last entry starts
// where the new one does, as on every reboot of a primary with no write
// in between — is replaced rather than kept: EpochAt answers the same.
func (e *Engine) AdvanceEpoch(newEpoch uint64) error {
	if e.dur == nil {
		return fmt.Errorf("engine: epoch advance requires a durable engine")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur := e.epoch.Load(); newEpoch <= cur {
		return fmt.Errorf("engine: epoch %d does not advance current epoch %d", newEpoch, cur)
	}
	if fb := e.fencedBy.Load(); newEpoch <= fb {
		return fmt.Errorf("engine: epoch %d does not outbid observed epoch %d", newEpoch, fb)
	}
	start := wal.EpochStart{Epoch: newEpoch, StartSeq: e.dur.log.LastSeq() + 1}
	timeline := e.EpochTimeline()
	if n := len(timeline); n > 0 && timeline[n-1].StartSeq == start.StartSeq {
		timeline = timeline[:n-1]
	}
	return e.setEpochLocked(newEpoch, append(timeline, start))
}

// AdoptEpoch replaces this node's epoch and timeline with a primary's
// (delivered in the replication welcome). The primary's timeline is
// authoritative for the history the follower mirrors; adopting a lower
// epoch than the node's own is refused — that primary is stale.
func (e *Engine) AdoptEpoch(epoch uint64, timeline []wal.EpochStart) error {
	if e.dur == nil {
		return fmt.Errorf("engine: epoch adoption requires a durable engine")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if cur := e.epoch.Load(); epoch < cur {
		return fmt.Errorf("engine: refusing to adopt stale epoch %d (local epoch %d)", epoch, cur)
	} else if epoch == cur && slices.Equal(e.EpochTimeline(), timeline) {
		return nil // already current: skip the manifest rewrite
	}
	return e.setEpochLocked(epoch, slices.Clone(timeline))
}

// setEpochLocked persists epoch and timeline in the MANIFEST, preserving
// the generation naming, and only then makes them the node's: a failed
// save changes nothing. Callers hold the engine's write lock, which
// serializes this against the checkpoint publish phase (the only other
// manifest writer under the dir lock).
func (e *Engine) setEpochLocked(epoch uint64, timeline []wal.EpochStart) error {
	man, ok, err := wal.LoadManifest(e.dur.dir)
	if err != nil {
		return fmt.Errorf("engine: epoch persist: %w", err)
	}
	if !ok {
		man = wal.DefaultManifest()
		man.LastSeq = 0
	}
	man.Epoch, man.Epochs = epoch, timeline
	if err := man.Save(e.dur.dir); err != nil {
		return fmt.Errorf("engine: epoch persist: %w", err)
	}
	e.epochsMu.Lock()
	e.epochs = timeline
	e.epochsMu.Unlock()
	e.epoch.Store(epoch)
	return nil
}
