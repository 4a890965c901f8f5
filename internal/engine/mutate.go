// The write path: Engine.ApplyContext feeds tuple inserts, updates and
// deletes to the engine's write overlay and decides — per cached
// analysis — whether the cached certificate survives the change.
//
// # Region-certified invalidation
//
// A cached entry certifies that every weight vector w' inside its
// cross-polytope P (the entry's core.Polytope: anchor w, semi-axes per
// dimension j of [Lo_j, Hi_j]) has the cached ranked result R. Within P
// no perturbation occurs, so the k-th line is the cached d_k everywhere
// in P and every result line stays above it. A changed tuple t with
// subspace projection p can break the certificate only if its score
// line can reach some cached result line inside P, which is
// P.Reaches(R, w·p, p): the gap is convex in w', so its maximum over P
// is attained at the anchor or an axis vertex and has the closed form
//
//	w·p − r.Score + max_j max(Hi_j·c_j, Lo_j·c_j),   c = p − r.Proj
//
// with the stored score r.Score as the result line's intercept —
// O(k·qlen) arithmetic over the cached projections, no index I/O. If
// the maximum stays below −core.ReachTol for every result line (d_k
// first: it is the tightest), the change provably cannot alter the
// ranked result, the region bounds, or the boundary perturbation
// anywhere in P, and the entry keeps serving. Anything closer is a
// crossing, ties included: equality would hand the ranking to the id
// tiebreak, which the certificate does not model. Checking all result
// lines (not just d_k) also covers CompositionOnly entries, whose
// members may reorder inside P.
//
// Conservative short-cuts, in order:
//
//   - a change whose old and new projections onto the entry's subspace
//     are identical cannot affect the entry at all (survive);
//   - a changed tuple that IS a cached result member invalidates the
//     entry (its cached projection and scores are stale);
//   - an entry whose result holds fewer than k tuples is invalidated by
//     any subspace-touching change (anything can join an under-full
//     result);
//   - entries computed with φ > 0 are invalidated by any
//     subspace-touching change: their perturbation schedules describe
//     the ranking beyond P, where the vertex check certifies nothing.
package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/lists"
	"repro/internal/vec"
)

// ErrImmutable tags Apply calls on an engine configured ReadOnly.
var ErrImmutable = errors.New("index is immutable")

// OpKind selects a mutation.
type OpKind int

const (
	// OpInsert adds Op.Tuple as a new tuple.
	OpInsert OpKind = iota
	// OpUpdate replaces tuple Op.ID with Op.Tuple.
	OpUpdate
	// OpDelete removes tuple Op.ID.
	OpDelete
)

// numOpKinds bounds the valid kinds, [OpInsert, numOpKinds).
const numOpKinds = OpDelete + 1

var opKindNames = [numOpKinds]string{OpInsert: "insert", OpUpdate: "update", OpDelete: "delete"}

func (k OpKind) String() string {
	if !k.valid() {
		return fmt.Sprintf("op(%d)", int(k))
	}
	return opKindNames[k]
}

func (k OpKind) valid() bool { return k >= OpInsert && k < numOpKinds }

// Op is one mutation of a batch.
type Op struct {
	Kind  OpKind
	ID    int        // Update/Delete target
	Tuple vec.Sparse // Insert/Update payload
}

// OpResult is the per-op outcome: the assigned (insert) or targeted id,
// or the op's error. Ops apply independently, in order; one failed op
// does not roll back its batch.
type OpResult struct {
	ID  int
	Err error
}

// ApplyResult summarizes one Apply batch.
type ApplyResult struct {
	// Results is parallel to the op slice.
	Results []OpResult
	// Applied counts ops that mutated the index.
	Applied int
	// CacheChecked / CacheEvicted / CacheSurvived count cached entries
	// examined by the invalidation certificate and its verdicts.
	CacheChecked  int
	CacheEvicted  int
	CacheSurvived int
}

// MutationStats is a point-in-time snapshot of the engine's write-path
// counters, and the "mutations" block of /stats as it stands.
type MutationStats struct {
	Inserts       int64 `json:"inserts"`
	Updates       int64 `json:"updates"`
	Deletes       int64 `json:"deletes"`
	Batches       int64 `json:"batches"`
	CacheChecked  int64 `json:"cache_checked"`
	CacheEvicted  int64 `json:"cache_evicted"`
	CacheSurvived int64 `json:"cache_survived"`
}

// Mutable reports whether Apply is enabled.
func (e *Engine) Mutable() bool { return e.mutable }

// MutationStats snapshots the write-path counters.
func (e *Engine) MutationStats() MutationStats {
	return MutationStats{
		Inserts:       e.mutOps[OpInsert].Load(),
		Updates:       e.mutOps[OpUpdate].Load(),
		Deletes:       e.mutOps[OpDelete].Load(),
		Batches:       e.mutBatches.Load(),
		CacheChecked:  e.invChecked.Load(),
		CacheEvicted:  e.invEvicted.Load(),
		CacheSurvived: e.invSurvived.Load(),
	}
}

// tupleChange records one applied mutation for the invalidation pass.
// hasOld/hasNew distinguish absence from an empty tuple.
type tupleChange struct {
	id       int
	old, new vec.Sparse
	hasOld   bool
	hasNew   bool
}

// Apply is ApplyContext with a context that never ends. It stays for
// bench/ladder.go, which calls it and may not change before ROADMAP
// item 3 removes it.
func (e *Engine) Apply(ops []Op) (ApplyResult, error) {
	return e.ApplyContext(context.TODO(), ops)
}

// ApplyContext executes a batch of mutations and invalidates exactly
// the cached analyses the changes can affect (see the package comment
// for the certificate). The batch is applied under the engine's write
// lock: it waits for in-flight queries to drain, and once ApplyContext
// returns every answer — cached or computed — reflects the post-batch
// dataset. Ops apply independently in order; per-op failures are
// reported in Results and do not fail the batch. On a durable engine
// the batch is appended to the write-ahead log before any mutation, and
// an outgrown log or overlay triggers checkpoint compaction before
// ApplyContext returns (see durable.go). A batch whose ctx has ended by
// the time it holds the write lock is refused untouched; once logged it
// completes, and the quorum wait stays bounded by the commit gate's own
// timeout.
func (e *Engine) ApplyContext(ctx context.Context, ops []Op) (ApplyResult, error) {
	if !e.mutable {
		return ApplyResult{}, fmt.Errorf("engine: %w", ErrImmutable)
	}
	if len(ops) == 0 {
		return ApplyResult{}, fmt.Errorf("engine: empty op batch: %w", ErrInvalid)
	}
	applyStart := time.Now()
	defer func() { mApplySeconds.Observe(time.Since(applyStart).Seconds()) }()
	res, seq, gate, err := e.lockAndApply(ctx, ops)
	if err != nil {
		return res, err
	}
	// Quorum gate: with the write lock released (queries keep flowing),
	// wait for followers to confirm fsync of the batch's frame. A gate
	// failure does not undo the batch — it is committed locally and
	// will replicate eventually — but the caller is told its
	// replication-durability guarantee was not met (ErrQuorum). The gate
	// was captured under the write lock: promotion attaches it before
	// the role flip, so no batch can slip between sink and gate.
	var gateErr error
	if gate != nil && seq != 0 {
		if gerr := gate(seq); gerr != nil {
			gateErr = fmt.Errorf("engine: batch %d applied locally but %w: %v", seq, ErrQuorum, gerr)
		}
	}
	// Compaction happens after the write lock is released, so queries
	// are not stalled behind the dataset rewrite. It must run even when
	// the quorum gate failed: during a follower outage the batches keep
	// committing locally, and skipping compaction would let the log,
	// overlay and the shipper's frame buffer grow without bound.
	e.maybeCheckpoint()
	return res, gateErr
}

// lockAndApply is ApplyContext's critical section: it takes the write
// lock itself (hence the name — a *Locked suffix would claim the caller
// holds it), then context check, fence check, log, ship, mutate,
// invalidate. It returns the batch's WAL sequence number (0 when the
// engine is not durable or nothing was logged) and the commit gate
// captured under the lock.
func (e *Engine) lockAndApply(ctx context.Context, ops []Op) (ApplyResult, uint64, func(seq uint64) error, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return ApplyResult{}, 0, nil, fmt.Errorf("engine: batch not applied: %w", err)
	}
	// Fencing: once a newer primary epoch has been observed, this node
	// must not commit client writes — they would branch the history a
	// live primary is extending under the new epoch.
	if fb := e.fencedBy.Load(); fb > e.epoch.Load() {
		return ApplyResult{}, 0, nil, fmt.Errorf("engine: epoch %d %w (observed epoch %d)", e.epoch.Load(), ErrFenced, fb)
	}
	var seq uint64
	// Write-ahead: the batch reaches the log (and, under the fsync-
	// per-batch policy, stable storage) before any overlay state
	// changes, so an acknowledged batch can always be replayed. A log
	// failure aborts the batch untouched.
	if e.dur != nil {
		if wops := walOps(ops); len(wops) > 0 {
			s, frame, err := e.dur.log.AppendFrame(wops)
			if err != nil {
				return ApplyResult{}, 0, nil, fmt.Errorf("engine: wal append: %w", err)
			}
			seq = s
			// Ship the committed frame while still under the write lock:
			// the sink's event order must be the log's sequence order,
			// and the bytes are exactly what the log holds (no second
			// serialization, no way to skip a frame and tear a gap into
			// the stream).
			if e.replSink != nil {
				e.replSink.CommitFrame(seq, frame)
			}
		}
	}
	return e.runOpsLocked(ops), seq, e.commitGate, nil
}

// applyOp applies one op to the overlay and returns the change it made:
// the one dispatch over op kinds, shared by live batches (runOpsLocked)
// and WAL recovery (replayInto). The change's id is the assigned
// (insert) or targeted id, -1 for an op that names no valid kind.
func applyOp(ov *lists.Overlay, op Op) (tupleChange, error) {
	switch op.Kind {
	case OpInsert:
		id, err := ov.Insert(op.Tuple)
		return tupleChange{id: id, new: op.Tuple, hasNew: true}, err
	case OpUpdate:
		old, err := ov.Update(op.ID, op.Tuple)
		return tupleChange{id: op.ID, old: old, new: op.Tuple, hasOld: true, hasNew: true}, err
	case OpDelete:
		old, err := ov.Delete(op.ID)
		return tupleChange{id: op.ID, old: old, hasOld: true}, err
	default:
		return tupleChange{id: -1}, fmt.Errorf("engine: unknown op kind %d: %w", int(op.Kind), ErrInvalid)
	}
}

// runOpsLocked applies a batch's ops to the overlay, counts them and
// runs the region-certified cache invalidation. Callers hold the write
// lock and have already committed the batch to the WAL (durable
// engines); Apply and ApplyReplicated share this path, which is what
// makes a standby's replay behaviorally identical to the primary's
// original execution.
func (e *Engine) runOpsLocked(ops []Op) ApplyResult {
	res := ApplyResult{Results: make([]OpResult, len(ops))}
	changes := make([]tupleChange, 0, len(ops))
	for i, op := range ops {
		ch, err := applyOp(e.mut, op)
		res.Results[i] = OpResult{ID: ch.id, Err: err}
		if err == nil {
			changes = append(changes, ch)
			e.mutOps[op.Kind].Add(1)
			res.Applied++
		}
	}
	e.mutBatches.Add(1)

	if e.cache != nil && len(changes) > 0 {
		checked, evicted := e.cache.invalidateCertified(changes)
		res.CacheChecked, res.CacheEvicted, res.CacheSurvived = checked, evicted, checked-evicted
		e.invChecked.Add(int64(checked))
		e.invEvicted.Add(int64(evicted))
		e.invSurvived.Add(int64(checked - evicted))
	}
	return res
}

// invalidateCertified drops every cached entry whose certificate does
// not survive the changes, keeping the rest serving. Returns how many
// entries were checked and how many evicted.
func (c *cache) invalidateCertified(changes []tupleChange) (checked, evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var doomed, live []*entry
	var proj []float64 // one change's old and new projections, grown to the widest subspace
	for _, bucket := range c.buckets {
		checked += len(bucket)
		// A bucket's entries (one at least: remove drops an emptied
		// bucket) share one subspace, so each change is projected once
		// for all of them.
		q := bucket[0].out.Query
		if n := 2 * q.Len(); cap(proj) < n {
			proj = make([]float64, n)
		}
		oldP, newP := proj[:q.Len()], proj[q.Len():2*q.Len()]
		live = append(live[:0], bucket...)
		for _, ch := range changes {
			q.ProjectInto(ch.old, oldP)
			q.ProjectInto(ch.new, newP)
			if slices.Equal(oldP, newP) {
				// The change is invisible on this subspace (this also
				// covers inserts/deletes of tuples that are zero on all
				// its dimensions): scores and regions are untouched.
				continue
			}
			live = slices.DeleteFunc(live, func(en *entry) bool {
				if changeSurvives(en, ch, oldP, newP) {
					return false
				}
				doomed = append(doomed, en)
				return true
			})
			if len(live) == 0 {
				break
			}
		}
	}
	for _, en := range doomed {
		c.remove(en)
	}
	c.publishGauges()
	return checked, len(doomed)
}

// changeSurvives applies the invalidation certificate of the package
// comment to one entry against one change that is visible on its
// subspace: oldP and newP are the change's old and new projections
// there, and differ.
func changeSurvives(en *entry, ch tupleChange, oldP, newP []float64) bool {
	if resultMember(en, ch.id) {
		return false // cached projections/scores of the member are stale
	}
	if len(en.out.Result) < en.out.K {
		return false // under-full result: any new mass can join it
	}
	if en.sig.phi > 0 {
		return false // perturbation schedules reach beyond the polytope
	}
	if ch.hasOld && en.poly.Reaches(en.out.Result, vec.Dot(en.poly.W, oldP), oldP) {
		return false
	}
	if ch.hasNew && en.poly.Reaches(en.out.Result, vec.Dot(en.poly.W, newP), newP) {
		return false
	}
	return true
}

func resultMember(en *entry, id int) bool {
	for _, r := range en.out.Result {
		if r.ID == id {
			return true
		}
	}
	return false
}
