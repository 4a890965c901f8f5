// Durability: the engine side of the write-ahead-log subsystem
// (internal/wal). A durable engine opens a data *directory* instead of
// two file paths, because the set of live files is itself mutable state:
// the manifest names the current tuple/list generation, wal.log holds
// every Apply batch since that generation was cut, and checkpoint
// compaction atomically advances both.
//
// # Recovery (OpenDir)
//
// OpenDir resolves the manifest, opens the named tuple/list files,
// wraps them in the write overlay and replays wal.log into it — records
// at or below the manifest's LastSeq are already folded into the files
// and are skipped, a torn final record is truncated away, and anything
// worse is refused as corruption. After replay the engine serves
// exactly the state of the last acknowledged batch (minus whatever the
// sync policy had not yet pushed to stable storage).
//
// # Checkpoint compaction
//
// When the log or the overlay delta crosses Config.CheckpointBytes, the
// engine folds the live view into fresh dataset files. The ordering is
// crash-safe; a crash between any two steps recovers to a consistent
// state:
//
//  1. write tuples.gNNNNNN.dat / lists.gNNNNNN.dat by merging a frozen
//     copy of the overlay's delta with the served generation's files,
//     and fsync them (crash here: manifest still
//     names the old generation, the full log replays — the orphan files
//     are ignored and overwritten by the next attempt);
//  2. atomically replace MANIFEST naming the new files and the last
//     sequence they contain (crash here: the new generation serves, and
//     replay skips every record at or below LastSeq instead of
//     double-applying);
//  3. cut the log down to its tail, the batches that landed during the
//     rewrite (crash here: the log holds exactly what the new files
//     lack; a crash before the cut's rename leaves the whole log, which
//     step 2's skip handles);
//  4. swap the live index to a fresh overlay over the new generation
//     with the tail replayed into it, and drop the previous
//     generation's files (in-memory only; a crash just reopens).
//
// The expensive rewrite runs off the engine's write lock (queries keep
// flowing; only the publish steps drain them briefly); see checkpoint()
// for the phase structure. The cached analyses survive: the logical
// dataset is unchanged, only its physical layout moved.
package engine

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lists"
	"repro/internal/wal"
)

// ErrManifestMoved tags a snapshot (lock-free) OpenDir that kept racing
// a concurrent writer's checkpoints: every one of its
// SnapshotOpenAttempts attempts found the manifest replaced (or the
// generation files swept) mid-open. Callers can retry later or back
// off; the directory itself is healthy — it is just being compacted
// faster than the open can complete.
var ErrManifestMoved = errors.New("manifest moved by a concurrent checkpoint")

// SnapshotOpenAttempts is how many times a lock-free snapshot open
// retries when a concurrent checkpoint publication moves the manifest
// under it before giving up with ErrManifestMoved.
const SnapshotOpenAttempts = 4

// DefaultCheckpointBytes is the compaction threshold applied when
// Config.CheckpointBytes is zero: the log or overlay delta crossing it
// triggers a checkpoint.
const DefaultCheckpointBytes = 64 << 20

// durable bundles the engine's WAL state; nil on non-durable engines.
type durable struct {
	log  *wal.Writer
	lock *wal.DirLock // the directory's exclusive writer role
	dir  string
	gen  uint64

	replayedRecords int
	replayedOps     int
	tornBytes       int64

	// ckptMu serializes checkpoints against each other (they span lock
	// regions, so the engine's RWMutex alone cannot) and against Close:
	// the rewrite reads the served generation's files under no other
	// lock.
	ckptMu          sync.Mutex
	checkpoints     atomic.Int64
	checkpointBytes int64        // resolved threshold; <= 0 disables auto-compaction
	lastCkptErr     atomic.Value // string: last auto-checkpoint failure

	// ckptHook, when non-nil, is called after each named checkpoint step
	// ("snapshot", "files", "manifest", and "truncate" after the log
	// cut); returning an error
	// aborts the checkpoint there. Crash-injection tests use it to stop the
	// sequence mid-flight and reopen the directory as a fresh process
	// would.
	ckptHook func(step string) error
}

// DurabilityStats is a point-in-time snapshot of the WAL subsystem, and
// the "wal" block of /stats as it stands (Enabled and Dir stay in
// process: /stats omits the block instead, and does not publish paths).
type DurabilityStats struct {
	// Enabled reports whether this engine has a write-ahead log.
	Enabled bool `json:"-"`
	// Dir is the data directory; Generation the live checkpoint
	// generation (0 = original files).
	Dir        string `json:"-"`
	Generation uint64 `json:"generation"`
	// SyncPolicy renders the writer's fsync policy.
	SyncPolicy string `json:"sync_policy"`
	// NextSeq is the sequence number the next batch will get; LogBytes
	// the current log length; Appends/Syncs the writer's counters.
	NextSeq  uint64 `json:"next_seq"`
	LogBytes int64  `json:"log_bytes"`
	Appends  int64  `json:"appends"`
	Syncs    int64  `json:"syncs"`
	// ReplayedRecords/ReplayedOps count what recovery applied at open;
	// TruncatedBytes is the torn tail repaired then.
	ReplayedRecords int   `json:"replayed_records"`
	ReplayedOps     int   `json:"replayed_ops"`
	TruncatedBytes  int64 `json:"truncated_bytes"`
	// Checkpoints counts completed compactions; CheckpointBytes is the
	// auto-compaction threshold (<= 0 disabled); LastCheckpointError is
	// the most recent auto-compaction failure ("" when none).
	Checkpoints         int64  `json:"checkpoints"`
	CheckpointBytes     int64  `json:"checkpoint_bytes"`
	LastCheckpointError string `json:"last_checkpoint_error,omitempty"`
}

// Durable reports whether the engine has a write-ahead log.
func (e *Engine) Durable() bool { return e.dur != nil }

// DurabilityStats snapshots the WAL subsystem (zero value when the
// engine is not durable).
func (e *Engine) DurabilityStats() DurabilityStats {
	if e.dur == nil {
		return DurabilityStats{}
	}
	d := e.dur
	st := DurabilityStats{
		Enabled:         true,
		Dir:             d.dir,
		SyncPolicy:      d.log.Policy().String(),
		NextSeq:         d.log.NextSeq(),
		LogBytes:        d.log.Size(),
		Appends:         d.log.Appends(),
		Syncs:           d.log.Syncs(),
		ReplayedRecords: d.replayedRecords,
		ReplayedOps:     d.replayedOps,
		TruncatedBytes:  d.tornBytes,
		Checkpoints:     d.checkpoints.Load(),
		CheckpointBytes: d.checkpointBytes,
	}
	e.mu.RLock()
	st.Generation = d.gen
	e.mu.RUnlock()
	if s, _ := d.lastCkptErr.Load().(string); s != "" {
		st.LastCheckpointError = s
	}
	return st
}

// OverlayStats measures the write overlay's in-memory delta; ok is
// false when there is none: a ReadOnly engine. Every writable engine
// has one, in-memory ones included.
func (e *Engine) OverlayStats() (lists.DeltaStats, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.mut == nil {
		return lists.DeltaStats{}, false
	}
	return e.mut.DeltaStats(), true
}

// OpenDir opens a persisted dataset directory, following its manifest
// to the live tuple/list generation. With Config.WAL set (and not
// ReadOnly) the engine takes the directory's writer lock (one durable
// writer per directory — a second one would interleave log frames and
// corrupt it), appends every Apply batch to wal.log and compacts past
// Config.CheckpointBytes; recovery replays the log before serving.
// Without WAL the directory is still opened manifest-aware and an
// existing log is replayed read-only, so neither a -wal=false restart
// nor a side-car tool ever serves state missing acknowledged batches;
// these snapshot opens retry when a concurrent writer's checkpoint
// moves the manifest mid-open. poolPages does nothing: it stays for
// bench/ladder.go:120 and :477, which pass it; re-basing the benchmark
// (ROADMAP.md item 3) removes it.
func OpenDir(dir string, poolPages int, cfg Config) (*Engine, error) {
	if cfg.WAL && !cfg.ReadOnly {
		return openDurableDir(dir, cfg)
	}
	// Snapshot open: no lock is held, so a live writer can publish a
	// checkpoint (new manifest, truncated log, removed old generation)
	// at any point while we read. Detect it — the manifest differing
	// after the open, or the open tripping over vanishing files — and
	// start over against the new generation. After SnapshotOpenAttempts
	// consecutive races the open gives up with the typed
	// ErrManifestMoved (never the last raw I/O error, which would
	// misread checkpoint churn as corruption).
	var lastErr error
	for attempt := 0; attempt < SnapshotOpenAttempts; attempt++ {
		before, e, err := openSnapshot(dir, cfg)
		if err == nil {
			after, aerr := currentManifest(dir)
			if aerr == nil && sameGeneration(after, before) {
				return e, nil
			}
			e.Close()
			lastErr = fmt.Errorf("checkpoint published during open")
			continue
		}
		lastErr = err
		if after, aerr := currentManifest(dir); aerr != nil || sameGeneration(after, before) {
			return nil, err // a real failure, not checkpoint churn
		}
	}
	return nil, fmt.Errorf("engine: %s: open raced concurrent checkpoints %d times (last: %v): %w",
		dir, SnapshotOpenAttempts, lastErr, ErrManifestMoved)
}

// sameGeneration reports whether two manifests name the same dataset
// generation — the snapshot open's moved-under-us check. Epoch-only
// manifest rewrites (a fencing promotion) do not move any files, so
// they are not a reason to restart an open.
func sameGeneration(a, b wal.Manifest) bool {
	return a.Gen == b.Gen && a.Tuples == b.Tuples && a.Lists == b.Lists && a.LastSeq == b.LastSeq
}

// currentManifest reads dir's manifest (the implied default when none
// exists) for the snapshot open's moved-under-us check.
func currentManifest(dir string) (wal.Manifest, error) {
	m, ok, err := wal.LoadManifest(dir)
	if err != nil {
		return wal.Manifest{}, err
	}
	if !ok {
		m = wal.DefaultManifest()
	}
	return m, nil
}

// openSnapshotRaceHook, when non-nil, runs right after the manifest is
// resolved — the window a concurrent checkpoint publication races.
// Tests use it to move the manifest deterministically.
var openSnapshotRaceHook func()

// openSnapshot performs one manifest-resolved, log-replaying open
// without taking the writer lock, returning the manifest it started
// from so the caller can detect a concurrent checkpoint.
func openSnapshot(dir string, cfg Config) (wal.Manifest, *Engine, error) {
	tuplePath, listPath, man, err := wal.ResolveDataset(dir)
	if err != nil {
		return man, nil, fmt.Errorf("engine: %w", err)
	}
	if openSnapshotRaceHook != nil {
		openSnapshotRaceHook()
	}
	ix, err := openDisk(tuplePath, listPath, cfg)
	if err != nil {
		return man, nil, err
	}
	e := New(ix, cfg)
	e.closer = ix.Close
	// An existing log holds committed batches the dataset files lack;
	// serve them even though this open will not write (a ReadOnly engine
	// takes an overlay only when there are some).
	ov := e.mut
	if ov == nil {
		ov = lists.NewOverlay(ix)
	}
	res, err := wal.Replay(filepath.Join(dir, wal.LogName), man.LastSeq, replayInto(ov, new(int)))
	if err != nil {
		ix.Close()
		return man, nil, fmt.Errorf("engine: replay %s: %w", wal.LogName, err)
	}
	if res.Records > 0 {
		e.ix = ov
	}
	e.epoch.Store(man.Epoch)
	e.epochs = append([]wal.EpochStart(nil), man.Epochs...)
	return man, e, nil
}

// openDurableDir is the writer-role open: lock, resolve, replay, attach
// the log.
func openDurableDir(dir string, cfg Config) (*Engine, error) {
	// The lock comes first: once held, no other writer can move the
	// manifest or the log underneath the steps below.
	lock, err := wal.AcquireDirLock(dir)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	fail := func(err error) (*Engine, error) {
		lock.Release()
		return nil, err
	}
	tuplePath, listPath, man, err := wal.ResolveDataset(dir)
	if err != nil {
		return fail(fmt.Errorf("engine: %w", err))
	}
	// With the writer role secured, garbage from interrupted checkpoints
	// (generation files no manifest references) can be swept.
	wal.RemoveStaleGenerations(dir, man.Gen)
	ix, err := openDisk(tuplePath, listPath, cfg)
	if err != nil {
		return fail(err)
	}
	e := New(ix, cfg)
	e.closer = ix.Close
	replayedOps := 0
	w, res, err := wal.Open(filepath.Join(dir, wal.LogName), cfg.WALSync, man.LastSeq, replayInto(e.mut, &replayedOps))
	if err != nil {
		ix.Close()
		return fail(fmt.Errorf("engine: open wal: %w", err))
	}
	threshold := cfg.CheckpointBytes
	if threshold == 0 {
		threshold = DefaultCheckpointBytes
	}
	e.dur = &durable{
		log:             w,
		lock:            lock,
		dir:             dir,
		gen:             man.Gen,
		replayedRecords: res.Records,
		replayedOps:     replayedOps,
		tornBytes:       res.TruncatedBytes,
		checkpointBytes: threshold,
	}
	// Fencing state survives restarts through the manifest: a deposed
	// primary that crashed and came back still knows its epoch (and its
	// promotion timeline) before serving a single request.
	e.epoch.Store(man.Epoch)
	e.epochs = append([]wal.EpochStart(nil), man.Epochs...)
	return e, nil
}

// replayInto adapts a logged batch back onto the overlay through the
// per-op dispatch live Apply uses (applyOp). Per-op failures are
// skipped, not fatal: they failed identically when first applied (the
// mutation code is deterministic), so skipping reproduces the committed
// state exactly — including insert-id assignment, which only advances
// on success. Recovery feeds neither the mutation counters nor the
// cache: applied is its own count.
func replayInto(ov *lists.Overlay, applied *int) func(seq uint64, ops []wal.Op) error {
	return func(seq uint64, wops []wal.Op) error {
		for _, op := range engineOps(wops) {
			if _, err := applyOp(ov, op); err == nil {
				*applied++
			}
		}
		return nil
	}
}

// walOps converts a batch for logging; the log numbers the engine's op
// kinds in the same order from wal.OpInsert on. Ops the engine will
// reject outright (unknown kinds) are dropped: they cannot mutate, so
// the log stays a record of effective mutations only.
func walOps(ops []Op) []wal.Op {
	out := make([]wal.Op, 0, len(ops))
	for _, op := range ops {
		if op.Kind.valid() {
			out = append(out, wal.Op{Kind: wal.OpInsert + wal.OpKind(op.Kind), ID: int64(op.ID), Tuple: op.Tuple})
		}
	}
	return out
}

// engineOps converts logged ops back to the engine's mutation form.
// EncodeRecord refuses unknown kinds; one is dropped all the same.
func engineOps(wops []wal.Op) []Op {
	ops := make([]Op, 0, len(wops))
	for _, op := range wops {
		if k := OpKind(op.Kind) - OpKind(wal.OpInsert); k.valid() {
			ops = append(ops, Op{Kind: k, ID: int(op.ID), Tuple: op.Tuple})
		}
	}
	return ops
}

// Checkpoint forces a compaction now, regardless of thresholds.
func (e *Engine) Checkpoint() error {
	if e.dur == nil {
		return fmt.Errorf("engine: checkpoint requires a durable engine (OpenDir with Config.WAL)")
	}
	return e.checkpoint(true)
}

// maybeCheckpoint runs a compaction when the log or the overlay delta
// has outgrown the threshold. Called by Apply AFTER it releases the
// write lock, so queries keep flowing during the dataset rewrite. A
// failure is recorded in DurabilityStats rather than failing the Apply:
// the batch itself is already durable in the log, and the next batch
// retries the compaction.
func (e *Engine) maybeCheckpoint() {
	d := e.dur
	if d == nil || d.checkpointBytes <= 0 || !e.checkpointDue() {
		return
	}
	if err := e.checkpoint(false); err != nil {
		d.lastCkptErr.Store(err.Error())
	} else {
		d.lastCkptErr.Store("")
	}
}

// checkpointDue reports whether the log or overlay delta crossed the
// compaction threshold.
func (e *Engine) checkpointDue() bool {
	d := e.dur
	e.mu.RLock()
	defer e.mu.RUnlock()
	return d.log.Size() >= d.checkpointBytes || e.mut.DeltaStats().Bytes >= d.checkpointBytes
}

// checkpoint performs the compaction sequence of the package comment in
// three phases, keeping the expensive dataset rewrite off the engine's
// write lock:
//
//   - snapshot (read lock): freeze the overlay's delta (an O(delta)
//     copy; the base files are shared) and pin the log position —
//     queries run concurrently, mutations are excluded;
//   - rewrite (no lock): merge the frozen delta with the base files into
//     the new generation's files (lists.SaveIndex) and fsync them;
//   - publish (write lock): manifest rename, log cut, live-index swap,
//     stale-generation sweep.
//
// Batches that land between snapshot and publish are the log's tail,
// the frames after the snapshot's log position: the cut keeps exactly
// them, and the fresh overlay over the new files replays them, so every
// checkpoint that finishes its rewrite publishes, cuts and swaps. The
// publish holds the write lock for O(tail), not O(delta). force skips
// the threshold re-check.
func (e *Engine) checkpoint(force bool) error {
	d := e.dur
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if !force && !e.checkpointDue() {
		return nil // another trigger compacted while we queued
	}
	// Every phase that ran is timed, also when a later one fails: the
	// total stays in mCheckpointSeconds, the split says whether a slow
	// checkpoint was building files, waiting for the disk, or waiting for
	// the write lock.
	ckptStart := time.Now()
	phaseStart := ckptStart
	lap := func() float64 { // seconds since the previous phase ended
		now := time.Now()
		took := now.Sub(phaseStart).Seconds()
		phaseStart = now
		return took
	}
	defer func() { mCheckpointSeconds.Observe(time.Since(ckptStart).Seconds()) }()
	hook := func(step string) error {
		if d.ckptHook != nil {
			return d.ckptHook(step)
		}
		return nil
	}

	// Phase 1: snapshot. ckptMu is held, so d.gen cannot move under us.
	e.mu.RLock()
	frozen := e.mut.Freeze()
	seq, snapLog := d.log.LastSeq(), d.log.Size()
	e.mu.RUnlock()
	mCheckpointPhaseSeconds.Observe("snapshot", lap())
	if err := hook("snapshot"); err != nil {
		return err
	}

	// Phase 2: write and fsync the new generation's files. The rewrite
	// reads the served generation's files with no engine lock held; it is
	// ckptMu that keeps Close from unmapping them meanwhile.
	gen := d.gen + 1
	tn, ln := wal.GenFileNames(gen)
	tuplePath, listPath := filepath.Join(d.dir, tn), filepath.Join(d.dir, ln)
	saved, err := lists.SaveIndex(tuplePath, listPath, frozen)
	mCheckpointPhaseSeconds.Observe("rewrite", lap())
	if err != nil {
		return fmt.Errorf("engine: checkpoint write: %w", err)
	}
	mCheckpointLists.Add("copied", int64(saved.ListsCopied))
	mCheckpointLists.Add("merged", int64(saved.ListsMerged))
	mCheckpointRecords.Add("copied", int64(saved.RecordsCopied))
	mCheckpointRecords.Add("encoded", int64(saved.RecordsEncoded))
	err = syncGeneration(d.dir, tuplePath, listPath)
	mCheckpointPhaseSeconds.Observe("sync", lap())
	if err != nil {
		return err
	}
	if err := hook("files"); err != nil {
		return err
	}

	// Phase 3: publish. The write lock drains in-flight queries for the
	// cheap steps only.
	defer func() { mCheckpointPhaseSeconds.Observe("publish", lap()) }() // the wait for the write lock included
	e.mu.Lock()
	defer e.mu.Unlock()

	// The manifest names the snapshot's log position: replay skips
	// exactly what the files fold, whatever landed since. The in-memory
	// generation advances with the manifest: if any later step fails, a
	// retry must mint a FRESH generation rather than rewrite files the
	// published manifest already names (an in-place rewrite is not
	// atomic — a crash mid-rewrite would leave the manifest pointing at
	// half-written files). Until the swap below, the old overlay keeps
	// serving the same logical data.
	man := wal.Manifest{Gen: gen, Tuples: tn, Lists: ln, LastSeq: seq,
		Epoch: e.epoch.Load(), Epochs: e.EpochTimeline()}
	if err := man.Save(d.dir); err != nil {
		return fmt.Errorf("engine: checkpoint manifest: %w", err)
	}
	d.gen = gen
	if err := hook("manifest"); err != nil {
		return err
	}

	// Keep only the tail: the frames the new files lack.
	if err := d.log.CutBefore(snapLog); err != nil {
		return fmt.Errorf("engine: checkpoint cut wal: %w", err)
	}
	if err := hook("truncate"); err != nil {
		return err
	}
	// The shipper can now drop frames at or below the folded sequence;
	// a follower behind them resyncs via snapshot transfer. Delivered
	// under the write lock, so the event is ordered against CommitFrame.
	if e.replSink != nil {
		e.replSink.CheckpointEvent(man)
	}

	// Swap the live index to the new generation, with the tail replayed
	// into a fresh overlay by recovery's own path. The engine-wide I/O
	// meter carries over, so /stats stays cumulative across compactions.
	// Failing here is recoverable: the old index keeps serving the same
	// logical data, and the next open follows the manifest.
	disk, err := lists.OpenDiskIndex(tuplePath, listPath)
	if err != nil {
		return fmt.Errorf("engine: checkpoint reopen: %w", err)
	}
	newOv := lists.NewOverlay(disk.WithStats(e.stats))
	if _, err := wal.Replay(filepath.Join(d.dir, wal.LogName), seq, replayInto(newOv, new(int))); err != nil {
		disk.Close()
		return fmt.Errorf("engine: checkpoint replay tail: %w", err)
	}
	oldClose := e.closer
	e.ix = newOv
	e.mut = newOv
	e.closer = disk.Close
	if oldClose != nil {
		oldClose() // release the previous generation's files
	}
	// Sweep every generation but the live one: the superseded
	// generation plus any orphans earlier failed checkpoints left. The
	// original irgen files (generation 0) never match the pattern.
	wal.RemoveStaleGenerations(d.dir, gen)
	d.checkpoints.Add(1)
	return nil
}

// syncGeneration makes a freshly written generation durable: both files,
// then the directory entry that names them.
func syncGeneration(dir, tuplePath, listPath string) error {
	for _, p := range []string{tuplePath, listPath} {
		if err := wal.SyncFile(p); err != nil {
			return fmt.Errorf("engine: checkpoint sync %s: %w", p, err)
		}
	}
	if err := wal.SyncDir(dir); err != nil {
		return fmt.Errorf("engine: checkpoint sync dir: %w", err)
	}
	return nil
}
