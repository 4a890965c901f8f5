package engine

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fixture"
	"repro/internal/vec"
	"repro/internal/wal"
)

// TestCheckpointLostRaceBacksOff: when a batch lands during every
// rewrite, no checkpoint can truncate the log, so the log stays above
// the threshold for good. The trigger used to fire on every batch from
// then on — a full dataset rewrite per write, the write half of the
// two-writer livelock. It now re-arms only after another threshold of
// growth past the lost snapshot, so the number of rewrites follows the
// bytes written, not the number of batches.
func TestCheckpointLostRaceBacksOff(t *testing.T) {
	const threshold = 4096
	rng := rand.New(rand.NewSource(41))
	cs := fixture.RandCase(rng, 40, 4, 2, 2)
	dir := t.TempDir()
	saveDir(t, dir, cs.Tuples, cs.M)
	eng := openDurable(t, dir, Config{CheckpointBytes: threshold, WALSync: wal.SyncPolicy{Mode: wal.SyncNone}})

	// The commit gate runs once a batch is in the log and the write lock
	// is released, before that Apply looks at the checkpoint trigger: it
	// is the "batch has landed" event the hook waits for.
	landed := make(chan struct{}, 1)
	eng.SetCommitGate(func(uint64) error {
		select {
		case landed <- struct{}{}:
		default:
		}
		return nil
	})
	shadow := cloneTuples(cs.Tuples)
	rewrites := 0
	var injected sync.WaitGroup
	// Runs under the checkpoint mutex, between the rewrite and the
	// publish: the injected batch makes this checkpoint lose the race.
	// The injecting Apply then queues behind this very checkpoint, so it
	// runs on its own goroutine. (The cap only keeps a regression from
	// rewriting forever: without the back-off every injected batch
	// starts the next rewrite.)
	eng.dur.ckptHook = func(step string) error {
		if step != "files" {
			return nil
		}
		if rewrites++; rewrites > 500 {
			return nil
		}
		select {
		case <-landed: // the triggering batch's own notice
		default:
		}
		mid := randOpTuple(rng, cs.M)
		injected.Add(1)
		go func() {
			defer injected.Done()
			if res, err := eng.Apply([]Op{{Kind: OpInsert, Tuple: mid}}); err != nil || res.Applied != 1 {
				t.Errorf("mid-rewrite apply: %+v %v", res, err)
			}
		}()
		<-landed
		shadow = append(shadow, mid)
		return nil
	}

	const batches = 400
	for i := 0; i < batches; i++ {
		tu := randOpTuple(rng, cs.M)
		mustApply(t, eng, Op{Kind: OpInsert, Tuple: tu})
		shadow = append(shadow, tu)
	}
	injected.Wait()

	st := eng.DurabilityStats()
	ov, _ := eng.OverlayStats()
	if st.Checkpoints != 0 {
		t.Fatalf("a checkpoint won although a batch landed during every rewrite: %+v", st)
	}
	// Between two triggers the log or the overlay delta grew by at least
	// one threshold, and neither was ever cut back.
	limit := int(st.LogBytes/threshold) + int(ov.Bytes/threshold) + 1
	t.Logf("%d rewrites for %d+%d batches, log %d B, overlay %d B", rewrites, batches, rewrites, st.LogBytes, ov.Bytes)
	if rewrites < 1 || rewrites > limit {
		t.Fatalf("%d rewrites for %d batches (log %d B, overlay %d B, threshold %d): want 1..%d",
			rewrites, batches, st.LogBytes, ov.Bytes, threshold, limit)
	}
	if rewrites*4 > batches {
		t.Fatalf("%d rewrites for %d batches: the trigger still follows the batch count", rewrites, batches)
	}

	opts := Options{Options: core.Options{Method: core.MethodCPT}}
	fresh := memEngine(cloneTuples(shadow), cs.M, Config{CacheEntries: -1})
	assertSameAnswers(t, eng, fresh, cs.Q, cs.K, opts)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openDurable(t, dir, Config{CheckpointBytes: -1})
	defer reopened.Close()
	assertSameAnswers(t, reopened, fresh, cs.Q, cs.K, opts)
}

// TestCheckpointWriteFailure: a rewrite that runs out of space (the next
// generation's list file is a link to /dev/full) fails the checkpoint,
// not the Apply; the error shows in DurabilityStats, the old generation
// keeps serving, the writer leaves no partial generation behind, and the
// next batch's checkpoint goes through.
func TestCheckpointWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	tuples, q, k := fixture.RunningExample()
	dir := t.TempDir()
	saveDir(t, dir, tuples, 2)
	eng := openDurable(t, dir, Config{CheckpointBytes: 1})
	defer eng.Close()

	_, listName := wal.GenFileNames(1)
	if err := os.Symlink("/dev/full", filepath.Join(dir, listName)); err != nil {
		t.Fatal(err)
	}
	shadow := cloneTuples(tuples)
	added := vec.MustSparse(vec.Entry{Dim: 0, Val: 0.42})
	mustApply(t, eng, Op{Kind: OpInsert, Tuple: added})
	shadow = append(shadow, added)

	st := eng.DurabilityStats()
	if !strings.Contains(st.LastCheckpointError, "no space left") || st.Generation != 0 || st.Checkpoints != 0 {
		t.Fatalf("failed rewrite not surfaced: %+v", st)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.g*.dat")); len(left) != 0 {
		t.Fatalf("failed rewrite left generation files behind: %v", left)
	}
	opts := Options{Options: core.Options{Method: core.MethodCPT}}
	assertSameAnswers(t, eng, memEngine(cloneTuples(shadow), 2, Config{CacheEntries: -1}), q, k, opts)

	mustApply(t, eng, Op{Kind: OpInsert, Tuple: added})
	shadow = append(shadow, added)
	st = eng.DurabilityStats()
	if st.LastCheckpointError != "" || st.Checkpoints != 1 || st.Generation != 1 {
		t.Fatalf("checkpoint after the failure did not recover: %+v", st)
	}
	assertSameAnswers(t, eng, memEngine(cloneTuples(shadow), 2, Config{CacheEntries: -1}), q, k, opts)
}

// TestCloseDuringCheckpoint: a checkpoint's rewrite reads the served
// generation's files with no engine lock held, so Close — which unmaps
// them — has to wait for it. The checkpoint is parked between its
// snapshot and its rewrite, Close is called meanwhile, and the rewrite
// then runs to its end over files that must still be there (a fault
// here kills the test binary); the checkpoint is made to fail after its
// files are written, so the directory is closed with an unpublished
// generation in it, which the next open sweeps.
func TestCloseDuringCheckpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	cs := fixture.RandCase(rng, 600, 5, 3, 3)
	dir := t.TempDir()
	saveDir(t, dir, cs.Tuples, cs.M)
	eng := openDurable(t, dir, Config{CheckpointBytes: -1})
	shadow := cloneTuples(cs.Tuples)
	for i := 0; i < 20; i++ {
		tu := randOpTuple(rng, cs.M)
		mustApply(t, eng, Op{Kind: OpUpdate, ID: i * 7, Tuple: tu})
		shadow[i*7] = tu
	}

	parked, release := make(chan struct{}), make(chan struct{})
	aborted := errors.New("stopped after the files")
	eng.dur.ckptHook = func(step string) error {
		switch step {
		case "snapshot":
			close(parked)
			<-release
		case "files":
			return aborted
		}
		return nil
	}
	ckptErr := make(chan error, 1)
	go func() { ckptErr <- eng.Checkpoint() }()
	<-parked
	closed := make(chan error, 1)
	go func() { closed <- eng.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a checkpoint was about to read the files it unmaps", err)
	case <-time.After(100 * time.Millisecond): // Close has nothing to wait for but the checkpoint
	}
	close(release)
	if err := <-ckptErr; !errors.Is(err, aborted) {
		t.Fatalf("checkpoint: %v, want the injected stop", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	orphans, _ := filepath.Glob(filepath.Join(dir, "*.g*.dat"))
	if len(orphans) != 2 {
		t.Fatalf("the stopped checkpoint left %v, want its two unpublished files", orphans)
	}

	reopened := openDurable(t, dir, Config{CheckpointBytes: -1})
	defer reopened.Close()
	if left, _ := filepath.Glob(filepath.Join(dir, "*.g*.dat")); len(left) != 0 {
		t.Fatalf("reopen did not sweep the unpublished generation: %v", left)
	}
	if st := reopened.DurabilityStats(); st.Generation != 0 || st.ReplayedOps != 20 {
		t.Fatalf("reopened at %+v, want generation 0 with the 20 updates replayed", st)
	}
	opts := Options{Options: core.Options{Method: core.MethodCPT}}
	assertSameAnswers(t, reopened, memEngine(shadow, cs.M, Config{CacheEntries: -1}), cs.Q, cs.K, opts)
}

// ckptDelta is the write load of TestCheckpointAllocsIndependentOfN:
// 100 single-op batches over the first 4 000 ids, the same whatever the
// dataset behind them.
func ckptDelta(t testing.TB, eng *Engine, m int) {
	rng := rand.New(rand.NewSource(1707))
	payload := func() vec.Sparse {
		entries := make([]vec.Entry, 0, 40)
		for _, d := range rng.Perm(m)[:40] {
			entries = append(entries, vec.Entry{Dim: d, Val: 0.01 + 0.99*rng.Float64()})
		}
		tu, err := vec.NewSparse(entries)
		if err != nil {
			t.Fatal(err)
		}
		return tu
	}
	for i := 0; i < 100; i++ {
		op := Op{Kind: OpUpdate, ID: rng.Intn(3000), Tuple: payload()}
		switch i % 10 {
		case 8:
			op = Op{Kind: OpInsert, Tuple: payload()}
		case 9:
			op = Op{Kind: OpDelete, ID: 3000 + i} // above every update, each once
		}
		if res, err := eng.Apply([]Op{op}); err != nil || res.Applied != 1 {
			t.Fatalf("op %d (%v %d): %+v %v", i, op.Kind, op.ID, res, err)
		}
	}
}

// TestCheckpointAllocsIndependentOfN: a checkpoint's memory follows the
// delta it folds, not the dataset under it. The same 100 writes over
// 4 000 and over 16 000 documents: the bytes one forced checkpoint
// allocates — the frozen delta, the two writers' chunks, the reopened
// generation's tables — stay under 4 MiB and within a quarter of each
// other (materializing the live view took 10 and 40 MB). The rewrite
// reads every byte of the served files and charges none of it: the
// engine's I/O meter, which /stats reports, does not move.
func TestCheckpointAllocsIndependentOfN(t *testing.T) {
	const vocab = 6000
	var allocated [2]uint64
	for i, docs := range []int{4000, 16000} {
		d := dataset.GenerateWSJ(dataset.WSJConfig{Docs: docs, Vocab: vocab, Seed: 1})
		dir := t.TempDir()
		saveDir(t, dir, d.Tuples, d.M)
		eng := openDurable(t, dir, Config{CheckpointBytes: -1, CacheEntries: -1})
		ckptDelta(t, eng, d.M)
		d = nil

		seq0, rand0, bytes0 := eng.Stats().Snapshot()
		bypass0 := eng.Stats().Bypasses()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := eng.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocated[i] = after.TotalAlloc - before.TotalAlloc
		seq, rnd, by := eng.Stats().Snapshot()
		if seq != seq0 || rnd != rand0 || by != bytes0 || eng.Stats().Bypasses() != bypass0 {
			t.Fatalf("%d docs: the checkpoint charged the engine's meter: seq_pages %d→%d rand_reads %d→%d bytes_read %d→%d pool_bypass %d→%d",
				docs, seq0, seq, rand0, rnd, bytes0, by, bypass0, eng.Stats().Bypasses())
		}
		if st := eng.DurabilityStats(); st.Checkpoints != 1 || st.Generation != 1 {
			t.Fatalf("%d docs: checkpoint did not publish: %+v", docs, st)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("%d docs: one checkpoint allocated %d KiB", docs, allocated[i]>>10)
		if allocated[i] > 4<<20 {
			t.Fatalf("%d docs: one checkpoint allocated %d bytes, want under 4 MiB", docs, allocated[i])
		}
	}
	if small, large := float64(allocated[0]), float64(allocated[1]); large > 1.25*small || small > 1.25*large {
		t.Fatalf("checkpoint allocations follow the dataset: %d bytes over 4 000 docs, %d over 16 000", allocated[0], allocated[1])
	}
}

// BenchmarkCheckpoint times one forced checkpoint with one batch in the
// log — freeze, merge through lists.SaveIndex, fsync, publish — over the
// bench/ harness's two datasets: write-mix's (WSJ -scale 2) and the
// paper-shaped ST n = 200 000, where the allocation per checkpoint is
// what a checkpoint costs in memory at that scale.
func BenchmarkCheckpoint(b *testing.B) {
	for _, d := range []*dataset.Dataset{
		dataset.GenerateWSJ(dataset.WSJConfig{Docs: 16000, Vocab: 24000, Seed: 1}),
		dataset.GenerateST(dataset.STConfig{N: 200000, Seed: 1}),
	} {
		b.Run(d.Name, func(b *testing.B) {
			dir := b.TempDir()
			saveDir(b, dir, d.Tuples, d.M)
			eng := openDurable(b, dir, Config{CheckpointBytes: -1, CacheEntries: -1})
			defer eng.Close()
			tu := d.Tuples[0].Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Apply([]Op{{Kind: OpUpdate, ID: i % d.N(), Tuple: tu}}); err != nil {
					b.Fatal(err)
				}
				if err := eng.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
