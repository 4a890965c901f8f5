package engine

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/storage"
	"repro/internal/vec"
	"repro/internal/wal"
)

// saveDir persists tuples as a fresh dataset directory.
func saveDir(t testing.TB, dir string, tuples []vec.Sparse, m int) {
	t.Helper()
	if err := lists.SaveDataset(filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat"), tuples, m); err != nil {
		t.Fatal(err)
	}
}

// copyDir clones a dataset directory file by file (the "crashed
// machine" whose state a recovery test reopens).
func copyDir(t testing.TB, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func openDurable(t testing.TB, dir string, cfg Config) *Engine {
	t.Helper()
	cfg.WAL = true
	eng, err := OpenDir(dir, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestDurableOpenReplayStats: batches applied through a durable engine
// survive a reopen (the overlay is rebuilt from the log), and the
// recovery counters report exactly what replay did.
func TestDurableOpenReplayStats(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	dir := t.TempDir()
	saveDir(t, dir, tuples, 2)

	eng := openDurable(t, dir, Config{})
	if !eng.Durable() || !eng.Mutable() {
		t.Fatalf("durable=%v mutable=%v", eng.Durable(), eng.Mutable())
	}
	if st := eng.DurabilityStats(); !st.Enabled || st.ReplayedOps != 0 || st.NextSeq != 1 {
		t.Fatalf("fresh durability stats %+v", st)
	}
	shadow := cloneTuples(tuples)
	nudged := vec.MustSparse(vec.Entry{Dim: 0, Val: 0.1}, vec.Entry{Dim: 1, Val: 0.55})
	mustApply(t, eng, Op{Kind: OpUpdate, ID: 3, Tuple: nudged})
	shadow[3] = nudged
	added := vec.MustSparse(vec.Entry{Dim: 1, Val: 0.95})
	mustApply(t, eng,
		Op{Kind: OpInsert, Tuple: added},
		Op{Kind: OpDelete, ID: 0},
	)
	shadow = append(shadow, added)
	shadow[0] = nil
	if st := eng.DurabilityStats(); st.Appends != 2 || st.Syncs < 2 || st.NextSeq != 3 {
		t.Fatalf("post-apply durability stats %+v", st)
	}
	ds, ok := eng.OverlayStats()
	if !ok || ds.Added != 1 || ds.Overridden != 1 || ds.Tombstoned != 1 {
		t.Fatalf("overlay stats %+v ok=%v", ds, ok)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the log replays into a fresh overlay.
	re := openDurable(t, dir, Config{})
	defer re.Close()
	// The writer role is exclusive: a second durable open on the same
	// directory must be refused while re holds the lock.
	if _, err := OpenDir(dir, 0, Config{WAL: true}); err == nil {
		t.Fatal("second durable writer acquired the same directory")
	}
	st := re.DurabilityStats()
	if st.ReplayedRecords != 2 || st.ReplayedOps != 3 || st.TruncatedBytes != 0 || st.NextSeq != 3 {
		t.Fatalf("recovery stats %+v", st)
	}
	fresh := memEngine(cloneTuples(shadow), 2, Config{CacheEntries: -1})
	opts := Options{Options: core.Options{Method: core.MethodCPT}}
	assertSameAnswers(t, re, fresh, q, k, opts)

	// A read-only open of the same directory serves the replayed state
	// too (stale reads would defeat the log), but refuses writes.
	ro, err := OpenDir(dir, 0, Config{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if ro.Mutable() || ro.Durable() {
		t.Fatalf("read-only open: mutable=%v durable=%v", ro.Mutable(), ro.Durable())
	}
	assertSameAnswers(t, ro, fresh, q, k, opts)
}

// TestDurableRecoveryPropertyTruncation is the acceptance property
// test: after N applied batches, the log hard-cut at EVERY byte
// boundary of the final record reopens to an engine whose answers are
// bit-identical to a fresh engine built on the prefix of fully
// committed batches — the final batch is lost (and only it) unless the
// cut preserves its whole frame.
func TestDurableRecoveryPropertyTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	const nBatches = 4
	cs := fixture.RandCase(rng, 40, 5, 3, 2)
	dir := t.TempDir()
	saveDir(t, dir, cs.Tuples, cs.M)

	eng := openDurable(t, dir, Config{})
	opts := Options{Options: core.Options{Method: core.MethodCPT}}
	queries := []vec.Query{cs.Q, randSubspaceQuery(rng, cs.M, 2), randSubspaceQuery(rng, cs.M, 3)}
	analyzeMust(t, eng, cs.Q, cs.K, opts)

	// shadows[i] is the dataset after i committed batches.
	shadows := [][]vec.Sparse{cloneTuples(cs.Tuples)}
	shadow := cloneTuples(cs.Tuples)
	for b := 0; b < nBatches; b++ {
		var ops []Op
		for len(ops) < 3 {
			switch rng.Intn(3) {
			case 0:
				tu := randOpTuple(rng, cs.M)
				ops = append(ops, Op{Kind: OpInsert, Tuple: tu})
				shadow = append(shadow, tu)
			case 1:
				id := rng.Intn(len(cs.Tuples))
				if shadow[id] == nil {
					continue
				}
				tu := randOpTuple(rng, cs.M)
				ops = append(ops, Op{Kind: OpUpdate, ID: id, Tuple: tu})
				shadow[id] = tu
			default:
				id := rng.Intn(len(cs.Tuples))
				if shadow[id] == nil {
					continue
				}
				ops = append(ops, Op{Kind: OpDelete, ID: id})
				shadow[id] = nil
			}
		}
		mustApply(t, eng, ops...)
		shadows = append(shadows, cloneTuples(shadow))
	}
	// Abandon eng without Close: a kill -9 never flushes anything — the
	// fsync-per-batch policy alone must have made the log durable.
	logPath := filepath.Join(dir, wal.LogName)
	info, err := wal.Inspect(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != nBatches {
		t.Fatalf("log holds %d records, want %d", info.Records, nBatches)
	}
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := info.Offsets[nBatches-1]

	scratch := t.TempDir()
	freshAt := map[int]*Engine{
		nBatches - 1: memEngine(cloneTuples(shadows[nBatches-1]), cs.M, Config{CacheEntries: -1}),
		nBatches:     memEngine(cloneTuples(shadows[nBatches]), cs.M, Config{CacheEntries: -1}),
	}
	for cut := lastStart; cut <= info.Size; cut++ {
		caseDir := filepath.Join(scratch, fmt.Sprintf("cut%d", cut))
		if err := os.Mkdir(caseDir, 0o755); err != nil {
			t.Fatal(err)
		}
		copyDir(t, dir, caseDir)
		if err := os.WriteFile(filepath.Join(caseDir, wal.LogName), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re := openDurable(t, caseDir, Config{})
		committed := nBatches - 1
		if cut == info.Size {
			committed = nBatches
		}
		if st := re.DurabilityStats(); st.ReplayedRecords != committed {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, st.ReplayedRecords, committed)
		}
		for _, q := range queries {
			assertSameAnswers(t, re, freshAt[committed], q, cs.K, opts)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.RemoveAll(caseDir); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointEquivalence: compaction folds the live view into a new
// file generation that (a) answers identically, (b) passes full
// checksum verification, (c) truncates the log, and (d) reopens — both
// writable and read-only — to the same answers with nothing to replay.
// It runs over mostly sparse tuples and over dense ones (every dimension
// set), so both record encodings go through the checkpoint's raw copy.
func TestCheckpointEquivalence(t *testing.T) {
	t.Run("sparse", func(t *testing.T) { checkpointEquivalence(t, false) })
	t.Run("dense", func(t *testing.T) { checkpointEquivalence(t, true) })
}

// fillDims sets every dimension of [0,m) that t lacks to a small
// non-zero value, so t's tuple-file record is dense.
func fillDims(rng *rand.Rand, t vec.Sparse, m int) vec.Sparse {
	out := make(vec.Sparse, 0, m)
	for d, i := 0, 0; d < m; d++ {
		if i < len(t) && t[i].Dim == d {
			out = append(out, t[i])
			i++
		} else {
			out = append(out, vec.Entry{Dim: d, Val: 0.01 + 0.04*rng.Float64()})
		}
	}
	return out
}

func checkpointEquivalence(t *testing.T, full bool) {
	rng := rand.New(rand.NewSource(515))
	cs := fixture.RandCase(rng, 50, 5, 3, 2)
	opTuple := func() vec.Sparse { return randOpTuple(rng, cs.M) }
	if full {
		for i, tu := range cs.Tuples {
			cs.Tuples[i] = fillDims(rng, tu, cs.M)
		}
		opTuple = func() vec.Sparse { return fillDims(rng, randOpTuple(rng, cs.M), cs.M) }
	}
	dir := t.TempDir()
	saveDir(t, dir, cs.Tuples, cs.M)

	// CheckpointBytes: -1 disables auto-compaction so the test controls
	// when it happens.
	eng := openDurable(t, dir, Config{CheckpointBytes: -1})
	opts := Options{Options: core.Options{Method: core.MethodCPT}}
	analyzeMust(t, eng, cs.Q, cs.K, opts)

	shadow := cloneTuples(cs.Tuples)
	for b := 0; b < 3; b++ {
		var ops []Op
		for j := 0; j < 4; j++ {
			tu := opTuple()
			if rng.Intn(2) == 0 && shadow[j] != nil {
				ops = append(ops, Op{Kind: OpUpdate, ID: j, Tuple: tu})
				shadow[j] = tu
			} else {
				ops = append(ops, Op{Kind: OpInsert, Tuple: tu})
				shadow = append(shadow, tu)
			}
		}
		mustApply(t, eng, ops...)
	}
	seqBefore := eng.DurabilityStats().NextSeq

	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := eng.DurabilityStats()
	if st.Checkpoints != 1 || st.Generation != 1 {
		t.Fatalf("post-checkpoint stats %+v", st)
	}
	if st.NextSeq != seqBefore {
		t.Fatalf("checkpoint moved the sequence: %d → %d", seqBefore, st.NextSeq)
	}
	if ds, ok := eng.OverlayStats(); !ok || ds.Added != 0 || ds.Overridden != 0 || ds.Tombstoned != 0 {
		t.Fatalf("overlay not reset after checkpoint: %+v", ds)
	}

	// The manifest names the new generation; its files verify in full.
	man, ok, err := wal.LoadManifest(dir)
	if err != nil || !ok || man.Gen != 1 {
		t.Fatalf("manifest %+v ok=%v err=%v", man, ok, err)
	}
	for _, name := range []string{man.Tuples, man.Lists} {
		if err := storage.VerifyChecksum(filepath.Join(dir, name)); err != nil {
			t.Fatalf("checkpointed file %s: %v", name, err)
		}
	}
	if info, err := wal.Inspect(filepath.Join(dir, wal.LogName)); err != nil || info.Records != 0 {
		t.Fatalf("log after checkpoint: %+v err=%v", info, err)
	}

	// The live engine keeps answering identically across the swap, and
	// writes keep working on the new generation.
	fresh := memEngine(cloneTuples(shadow), cs.M, Config{CacheEntries: -1})
	assertSameAnswers(t, eng, fresh, cs.Q, cs.K, opts)
	post := opTuple()
	mustApply(t, eng, Op{Kind: OpInsert, Tuple: post})
	shadow = append(shadow, post)
	fresh = memEngine(cloneTuples(shadow), cs.M, Config{CacheEntries: -1})
	assertSameAnswers(t, eng, fresh, cs.Q, cs.K, opts)

	// Reopens follow the manifest: writable replays only the post-
	// checkpoint record; read-only opens the new generation directly.
	// (The writer lock is exclusive, so the first engine closes first.)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	re := openDurable(t, dir, Config{CheckpointBytes: -1})
	defer re.Close()
	if st := re.DurabilityStats(); st.ReplayedRecords != 1 || st.Generation != 1 {
		t.Fatalf("reopen stats %+v", st)
	}
	assertSameAnswers(t, re, fresh, cs.Q, cs.K, opts)
	ro, err := OpenDir(dir, 0, Config{ReadOnly: true, VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	assertSameAnswers(t, ro, fresh, cs.Q, cs.K, opts)

	// A second checkpoint supersedes the first: generation 1's files are
	// removed, generation 2's serve.
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g1t, g1l := wal.GenFileNames(1)
	for _, name := range []string{g1t, g1l} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("superseded file %s still present (err %v)", name, err)
		}
	}
	if man, _, _ := wal.LoadManifest(dir); man.Gen != 2 {
		t.Fatalf("manifest gen %d, want 2", man.Gen)
	}
	assertSameAnswers(t, re, fresh, cs.Q, cs.K, opts)
}

// TestCheckpointDeletedIDStaysDeleted: compaction persists tombstones
// as empty records, and the reopened overlay must keep treating them as
// deleted — an Update or Delete on a dead id fails identically before
// and after a checkpoint (and after a restart), instead of silently
// resurrecting the id.
func TestCheckpointDeletedIDStaysDeleted(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	dir := t.TempDir()
	saveDir(t, dir, tuples, 2)
	eng := openDurable(t, dir, Config{CheckpointBytes: -1})

	mustApply(t, eng, Op{Kind: OpDelete, ID: 2})
	probe := vec.MustSparse(vec.Entry{Dim: 0, Val: 0.3})
	wantDead := func(stage string, e *Engine) {
		t.Helper()
		res, err := e.Apply([]Op{
			{Kind: OpUpdate, ID: 2, Tuple: probe},
			{Kind: OpDelete, ID: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Results[0].Err == nil || res.Results[1].Err == nil {
			t.Fatalf("%s: mutation of deleted id 2 succeeded: %+v", stage, res.Results)
		}
		if n := e.N(); n != 4 {
			t.Fatalf("%s: N=%d, want 4 (stable ids)", stage, n)
		}
	}
	wantDead("pre-checkpoint", eng)

	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantDead("post-checkpoint", eng)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir, Config{CheckpointBytes: -1})
	defer re.Close()
	wantDead("post-restart", re)
	shadow := cloneTuples(tuples)
	shadow[2] = nil
	fresh := memEngine(cloneTuples(shadow), 2, Config{CacheEntries: -1})
	assertSameAnswers(t, re, fresh, q, k, Options{Options: core.Options{Method: core.MethodCPT}})
}

// TestCheckpointCrashSteps injects a crash after each step of the
// compaction ordering and reopens the directory as a fresh process
// would: every crash point must recover to the same live view.
func TestCheckpointCrashSteps(t *testing.T) {
	for _, step := range []string{"files", "manifest", "truncate"} {
		t.Run(step, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			cs := fixture.RandCase(rng, 40, 4, 3, 2)
			dir := t.TempDir()
			saveDir(t, dir, cs.Tuples, cs.M)
			eng := openDurable(t, dir, Config{CheckpointBytes: -1})

			shadow := cloneTuples(cs.Tuples)
			var ops []Op
			for j := 0; j < 5; j++ {
				tu := randOpTuple(rng, cs.M)
				ops = append(ops, Op{Kind: OpInsert, Tuple: tu})
				shadow = append(shadow, tu)
			}
			ops = append(ops, Op{Kind: OpDelete, ID: 0})
			shadow[0] = nil
			mustApply(t, eng, ops...)

			crash := fmt.Errorf("injected crash after %s", step)
			eng.dur.ckptHook = func(s string) error {
				if s == step {
					return crash
				}
				return nil
			}
			if err := eng.Checkpoint(); err != crash {
				t.Fatalf("checkpoint err %v, want injected crash", err)
			}
			// The machine died here: the engine is abandoned un-Closed.
			// A real crash drops the flock with the process; in-process
			// we release it by hand so the "new process" can take over.
			eng.dur.lock.Release()

			re := openDurable(t, dir, Config{CheckpointBytes: -1})
			defer re.Close()
			fresh := memEngine(cloneTuples(shadow), cs.M, Config{CacheEntries: -1})
			opts := Options{Options: core.Options{Method: core.MethodCPT}}
			assertSameAnswers(t, re, fresh, cs.Q, cs.K, opts)
			assertSameAnswers(t, re, fresh, randSubspaceQuery(rng, cs.M, 2), cs.K, opts)

			// Recovery semantics per crash point: before the manifest
			// rename the old generation + full log is the truth; after it
			// the new generation serves and the log's records are skipped
			// (manifest) or gone (truncate).
			man, ok, err := wal.LoadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			st := re.DurabilityStats()
			switch step {
			case "files":
				if ok {
					t.Fatal("manifest exists before the rename step")
				}
				if st.ReplayedRecords != 1 {
					t.Fatalf("replayed %d, want the full log", st.ReplayedRecords)
				}
			case "manifest", "truncate":
				if !ok || man.Gen != 1 {
					t.Fatalf("manifest %+v ok=%v", man, ok)
				}
				if st.ReplayedRecords != 0 {
					t.Fatalf("replayed %d records already folded into the checkpoint", st.ReplayedRecords)
				}
				if st.Generation != 1 {
					t.Fatalf("generation %d, want 1", st.Generation)
				}
			}

			// And the recovered engine can itself checkpoint cleanly.
			if err := re.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			assertSameAnswers(t, re, fresh, cs.Q, cs.K, opts)
		})
	}
}

// TestCheckpointConcurrentApply: a batch landing during the (unlocked)
// dataset rewrite must not be lost — the checkpoint publishes the new
// generation but keeps the log and overlay (truncating would drop the
// batch's only durable copy), and the next checkpoint folds it.
func TestCheckpointConcurrentApply(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cs := fixture.RandCase(rng, 30, 4, 2, 2)
	dir := t.TempDir()
	saveDir(t, dir, cs.Tuples, cs.M)
	eng := openDurable(t, dir, Config{CheckpointBytes: -1})
	defer eng.Close()

	shadow := cloneTuples(cs.Tuples)
	first := randOpTuple(rng, cs.M)
	mustApply(t, eng, Op{Kind: OpInsert, Tuple: first})
	shadow = append(shadow, first)

	// The hook fires between the rewrite and the publish phase — the
	// window where a concurrent writer can slip a batch in.
	mid := randOpTuple(rng, cs.M)
	eng.dur.ckptHook = func(step string) error {
		if step == "files" {
			eng.dur.ckptHook = nil
			res, err := eng.Apply([]Op{{Kind: OpInsert, Tuple: mid}})
			if err != nil || res.Applied != 1 {
				t.Errorf("mid-rewrite apply: %+v %v", res, err)
			}
			shadow = append(shadow, mid)
		}
		return nil
	}
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := eng.DurabilityStats()
	if st.Generation != 1 {
		t.Fatalf("generation %d, want 1 (manifest published)", st.Generation)
	}
	if st.Checkpoints != 0 {
		t.Fatalf("checkpoints %d, want 0 (swap skipped: the log still owns a batch)", st.Checkpoints)
	}
	if info, err := wal.Inspect(filepath.Join(dir, wal.LogName)); err != nil || info.Records != 2 {
		t.Fatalf("log records %+v err=%v, want both batches kept", info, err)
	}
	opts := Options{Options: core.Options{Method: core.MethodCPT}}
	fresh := memEngine(cloneTuples(shadow), cs.M, Config{CacheEntries: -1})
	assertSameAnswers(t, eng, fresh, cs.Q, cs.K, opts)

	// Quiescent retry completes: gen 2, log truncated, state unchanged.
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st = eng.DurabilityStats()
	if st.Generation != 2 || st.Checkpoints != 1 {
		t.Fatalf("post-retry stats %+v", st)
	}
	if info, _ := wal.Inspect(filepath.Join(dir, wal.LogName)); info.Records != 0 {
		t.Fatalf("log not truncated after quiescent checkpoint: %+v", info)
	}
	assertSameAnswers(t, eng, fresh, cs.Q, cs.K, opts)
}

// TestCheckpointLostRaceSweeps: a checkpoint that loses the race to a
// concurrent batch publishes a generation it cannot swap to. Each such
// loss used to leave a full dataset copy on disk until some later
// checkpoint won; now the losing branch sweeps too, so at most two
// generations' files remain, and a reopen of the directory replays to
// the same state.
func TestCheckpointLostRaceSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	cs := fixture.RandCase(rng, 30, 4, 2, 2)
	dir := t.TempDir()
	saveDir(t, dir, cs.Tuples, cs.M)
	eng := openDurable(t, dir, Config{CheckpointBytes: -1})

	shadow := cloneTuples(cs.Tuples)
	const losses = 5
	for i := 0; i < losses; i++ {
		mid := randOpTuple(rng, cs.M)
		eng.dur.ckptHook = func(step string) error {
			if step == "files" {
				eng.dur.ckptHook = nil
				if res, err := eng.Apply([]Op{{Kind: OpInsert, Tuple: mid}}); err != nil || res.Applied != 1 {
					t.Errorf("mid-rewrite apply: %+v %v", res, err)
				}
				shadow = append(shadow, mid)
			}
			return nil
		}
		if err := eng.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.DurabilityStats()
	if st.Generation != losses || st.Checkpoints != 0 {
		t.Fatalf("stats %+v, want generation %d published and no swap", st, losses)
	}
	for _, pat := range []string{"tuples.g*.dat", "lists.g*.dat"} {
		left, err := filepath.Glob(filepath.Join(dir, pat))
		if err != nil {
			t.Fatal(err)
		}
		if len(left) > 2 {
			t.Fatalf("%d lost races left %d %s files on disk: %v", losses, len(left), pat, left)
		}
	}
	opts := Options{Options: core.Options{Method: core.MethodCPT}}
	fresh := memEngine(cloneTuples(shadow), cs.M, Config{CacheEntries: -1})
	// The served generation's files are unlinked by now; it must still
	// answer through its open handles.
	assertSameAnswers(t, eng, fresh, cs.Q, cs.K, opts)

	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openDurable(t, dir, Config{CheckpointBytes: -1})
	defer reopened.Close()
	assertSameAnswers(t, reopened, fresh, cs.Q, cs.K, opts)
}

// TestCheckpointAutoTrigger: a tiny threshold makes Apply compact on
// its own, and the failure of an auto-compaction is reported in
// DurabilityStats, not as an Apply error.
func TestCheckpointAutoTrigger(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	dir := t.TempDir()
	saveDir(t, dir, tuples, 2)
	eng := openDurable(t, dir, Config{CheckpointBytes: 1})
	defer eng.Close()

	shadow := cloneTuples(tuples)
	added := vec.MustSparse(vec.Entry{Dim: 0, Val: 0.42})
	mustApply(t, eng, Op{Kind: OpInsert, Tuple: added})
	shadow = append(shadow, added)
	st := eng.DurabilityStats()
	if st.Checkpoints != 1 || st.LastCheckpointError != "" {
		t.Fatalf("auto-checkpoint stats %+v", st)
	}
	if info, err := wal.Inspect(filepath.Join(dir, wal.LogName)); err != nil || info.Records != 0 {
		t.Fatalf("log not compacted: %+v err=%v", info, err)
	}
	fresh := memEngine(cloneTuples(shadow), 2, Config{CacheEntries: -1})
	assertSameAnswers(t, eng, fresh, q, k, Options{Options: core.Options{Method: core.MethodCPT}})

	// Injected step failure: Apply still succeeds, the error surfaces in
	// the stats, and the next Apply retries and clears it.
	eng.dur.ckptHook = func(s string) error {
		if s == "files" {
			return fmt.Errorf("disk full")
		}
		return nil
	}
	mustApply(t, eng, Op{Kind: OpInsert, Tuple: added})
	shadow = append(shadow, added)
	if st := eng.DurabilityStats(); !strings.Contains(st.LastCheckpointError, "disk full") {
		t.Fatalf("checkpoint failure not surfaced: %+v", st)
	}
	eng.dur.ckptHook = nil
	mustApply(t, eng, Op{Kind: OpInsert, Tuple: added})
	shadow = append(shadow, added)
	st = eng.DurabilityStats()
	if st.LastCheckpointError != "" || st.Checkpoints < 2 {
		t.Fatalf("checkpoint retry did not recover: %+v", st)
	}
	fresh = memEngine(cloneTuples(shadow), 2, Config{CacheEntries: -1})
	assertSameAnswers(t, eng, fresh, q, k, Options{Options: core.Options{Method: core.MethodCPT}})
}

// BenchmarkApplyWAL measures the durability overhead of the write path:
// the same small Apply batch against a non-durable engine, a durable
// one that fsyncs per batch, and a durable one that never fsyncs.
func BenchmarkApplyWAL(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cs := fixture.RandCase(rng, 200, 6, 3, 2)
	for _, mode := range []string{"nowal", "sync=batch", "sync=none"} {
		b.Run(mode, func(b *testing.B) {
			dir := b.TempDir()
			saveDir(b, dir, cs.Tuples, cs.M)
			cfg := Config{CheckpointBytes: -1, CacheEntries: -1}
			var eng *Engine
			var err error
			switch mode {
			case "nowal":
				eng, err = OpenDir(dir, 0, cfg)
			case "sync=batch":
				cfg.WAL = true
				eng, err = OpenDir(dir, 0, cfg)
			case "sync=none":
				cfg.WAL = true
				cfg.WALSync = wal.SyncPolicy{Mode: wal.SyncNone}
				eng, err = OpenDir(dir, 0, cfg)
			}
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			tu := randOpTuple(rng, cs.M)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Apply([]Op{
					{Kind: OpUpdate, ID: i % len(cs.Tuples), Tuple: tu},
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
