package engine

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

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

// BenchmarkCheckpoint times one forced checkpoint of the bench/
// harness's write-mix dataset (WSJ -scale 2) with one batch in the log:
// snapshot, rewrite through lists.SaveDataset, fsync, publish.
func BenchmarkCheckpoint(b *testing.B) {
	d := dataset.GenerateWSJ(dataset.WSJConfig{Docs: 16000, Vocab: 24000, Seed: 1})
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
}
