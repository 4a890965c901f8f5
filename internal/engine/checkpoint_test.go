package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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

// generationFiles counts the checkpoint generations whose files are in
// dir (the original irgen pair, generation 0, is not one).
func generationFiles(t testing.TB, dir string) int {
	t.Helper()
	tuples, err := filepath.Glob(filepath.Join(dir, "tuples.g*.dat"))
	if err != nil {
		t.Fatal(err)
	}
	lists, err := filepath.Glob(filepath.Join(dir, "lists.g*.dat"))
	if err != nil {
		t.Fatal(err)
	}
	return max(len(tuples), len(lists))
}

// TestCheckpointEveryRewriteWins: a batch lands during every rewrite,
// and every rewrite still publishes, cuts the log down to that batch
// and swaps to the new generation. The log never holds more than the
// threshold plus one rewrite's tail, at most two generations' files
// are on disk, and the engine, reopened, answers like a fresh one.
func TestCheckpointEveryRewriteWins(t *testing.T) {
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
	var tail int64 // the largest log a cut left
	var injected sync.WaitGroup
	// Runs under the checkpoint mutex, between the rewrite and the
	// publish: the injected batch is this rewrite's tail. The injecting
	// Apply then queues behind this very checkpoint, so it runs on its
	// own goroutine.
	eng.dur.ckptHook = func(step string) error {
		switch step {
		case "files":
			rewrites++
			if n := generationFiles(t, dir); n > 2 {
				t.Errorf("rewrite %d: %d generations' files on disk", rewrites, n)
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
		case "truncate":
			tail = max(tail, eng.dur.log.Size())
		}
		return nil
	}

	const batches = 400
	for i := 0; i < batches; i++ {
		tu := randOpTuple(rng, cs.M)
		mustApply(t, eng, Op{Kind: OpInsert, Tuple: tu})
		shadow = append(shadow, tu)
		st := eng.DurabilityStats()
		if st.Generation != uint64(st.Checkpoints) || st.LastCheckpointError != "" {
			t.Fatalf("batch %d: a rewrite did not publish, cut and swap: %+v", i, st)
		}
		if st.LogBytes > threshold+tail {
			t.Fatalf("batch %d: log %d B, above the threshold %d plus one rewrite's tail %d", i, st.LogBytes, threshold, tail)
		}
	}
	injected.Wait()

	st := eng.DurabilityStats()
	t.Logf("%d rewrites for %d+%d batches, %d won, log %d B, largest cut log %d B", rewrites, batches, rewrites, st.Checkpoints, st.LogBytes, tail)
	if rewrites < 5 || st.Checkpoints != int64(rewrites) || st.Generation != uint64(rewrites) {
		t.Fatalf("%d rewrites, %d checkpoints, generation %d: want every rewrite (at least 5) to win", rewrites, st.Checkpoints, st.Generation)
	}
	if tail <= 8 {
		t.Fatalf("no cut kept a batch (largest cut log %d B): the test lands none during a rewrite", tail)
	}
	if n := generationFiles(t, dir); n != 1 {
		t.Fatalf("%d generations' files on disk, want the live one", n)
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

// TestCheckpointNotDueOnTheBitmap: the overlay's tombstone bitmap, one
// bit per base tuple, is nothing a checkpoint can fold, so it does not
// count toward the threshold. Over a base whose bitmap alone is above
// the threshold, a forced checkpoint leaves an empty log, and one small
// write after it runs no checkpoint.
func TestCheckpointNotDueOnTheBitmap(t *testing.T) {
	const threshold = 4096
	rng := rand.New(rand.NewSource(45))
	const m = 4
	tuples := make([]vec.Sparse, 8*threshold+64) // a bitmap of threshold+8 B
	for i := range tuples {
		tuples[i] = randOpTuple(rng, m)
	}
	dir := t.TempDir()
	saveDir(t, dir, tuples, m)
	eng := openDurable(t, dir, Config{CheckpointBytes: threshold, WALSync: wal.SyncPolicy{Mode: wal.SyncNone}})
	defer eng.Close()

	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := eng.DurabilityStats()
	mustApply(t, eng, Op{Kind: OpInsert, Tuple: randOpTuple(rng, m)})
	after := eng.DurabilityStats()
	if n := after.Checkpoints - before.Checkpoints; n != 0 {
		t.Fatalf("one small write after a checkpoint ran %d more (log %d B, overlay %d B, threshold %d B)",
			n, after.LogBytes, eng.mut.DeltaStats().Bytes, threshold)
	}
}

// TestCheckpointFourWriters: four writers apply single-insert batches
// back to back over a small threshold, so batches land during the
// rewrites; every rewrite publishes, cuts and swaps, the log stays
// within the threshold plus one batch per writer (the tail a rewrite
// can gather while the other writers queue behind it, and the batch
// that crossed), at most two generations' files are ever on disk, and
// the engine, reopened, answers like a fresh one over the tuples the
// inserts were given.
func TestCheckpointFourWriters(t *testing.T) {
	const (
		threshold = 4096
		writers   = 4
		perWriter = 150
	)
	rng := rand.New(rand.NewSource(47))
	cs := fixture.RandCase(rng, 40, 4, 2, 2)
	dir := t.TempDir()
	saveDir(t, dir, cs.Tuples, cs.M)
	eng := openDurable(t, dir, Config{CheckpointBytes: threshold, WALSync: wal.SyncPolicy{Mode: wal.SyncNone}})
	rewrites, tails := 0, 0
	eng.dur.ckptHook = func(step string) error { // under ckptMu
		switch step {
		case "files":
			rewrites++
			if n := generationFiles(t, dir); n > 2 {
				t.Errorf("rewrite %d: %d generations' files on disk", rewrites, n)
			}
		case "truncate":
			if eng.dur.log.Size() > 8 {
				tails++
			}
		}
		return nil
	}

	// Every batch is one insert of a tuple with all m entries, so every
	// frame has the same size.
	full := func(rng *rand.Rand) vec.Sparse {
		entries := make([]vec.Entry, cs.M)
		for d := range entries {
			entries[d] = vec.Entry{Dim: d, Val: 0.05 + 0.9*rng.Float64()}
		}
		return vec.MustSparse(entries...)
	}
	frame, err := wal.EncodeRecord(1, walOps([]Op{{Kind: OpInsert, Tuple: full(rng)}}))
	if err != nil {
		t.Fatal(err)
	}
	limit := int64(threshold + writers*len(frame))

	var mu sync.Mutex
	inserted := map[int]vec.Sparse{}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wrng := rand.New(rand.NewSource(int64(100 + w)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tu := full(wrng)
				res, err := eng.Apply([]Op{{Kind: OpInsert, Tuple: tu}})
				if err != nil || res.Applied != 1 {
					t.Errorf("writer apply: %+v %v", res, err)
					return
				}
				mu.Lock()
				inserted[res.Results[0].ID] = tu
				mu.Unlock()
				if st := eng.DurabilityStats(); st.LogBytes > limit {
					t.Errorf("log %d B, above the threshold %d plus one batch per writer (%d B)", st.LogBytes, threshold, limit)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	st := eng.DurabilityStats()
	t.Logf("%d rewrites, %d won, %d kept a tail, log %d B", rewrites, st.Checkpoints, tails, st.LogBytes)
	if rewrites < 5 || st.Checkpoints != int64(rewrites) || st.Generation != uint64(rewrites) || st.LastCheckpointError != "" {
		t.Fatalf("%d rewrites: want every one (at least 5) to publish, cut and swap: %+v", rewrites, st)
	}
	if n := generationFiles(t, dir); n != 1 {
		t.Fatalf("%d generations' files on disk, want the live one", n)
	}
	shadow := cloneTuples(cs.Tuples)
	for id := len(shadow); id < len(cs.Tuples)+writers*perWriter; id++ {
		tu, ok := inserted[id]
		if !ok {
			t.Fatalf("no insert was given id %d", id)
		}
		shadow = append(shadow, tu)
	}
	opts := Options{Options: core.Options{Method: core.MethodCPT}}
	fresh := memEngine(shadow, cs.M, Config{CacheEntries: -1})
	assertSameAnswers(t, eng, fresh, cs.Q, cs.K, opts)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := openDurable(t, dir, Config{CheckpointBytes: -1})
	defer reopened.Close()
	assertSameAnswers(t, reopened, fresh, cs.Q, cs.K, opts)
	assertSameAnswers(t, reopened, fresh, randSubspaceQuery(rng, cs.M, 3), cs.K, opts)
}

// TestCheckpointSwapUnderReaders: a checkpoint swaps the served index
// under the write lock while readers keep asking for what a swap cannot
// change (the dimensionality, the I/O meter, writability) and for the
// index itself. Under -race this fails if any of them reads the swapped
// fields without the lock, as query validation once did.
func TestCheckpointSwapUnderReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cs := fixture.RandCase(rng, 200, 6, 3, 3)
	dir := t.TempDir()
	saveDir(t, dir, cs.Tuples, cs.M)
	eng := openDurable(t, dir, Config{CheckpointBytes: 2048, CacheEntries: -1, WALSync: wal.SyncPolicy{Mode: wal.SyncNone}})
	defer eng.Close()

	done := make(chan struct{})
	read := make(chan int)
	go func() {
		n := 0
		defer func() { read <- n }()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, _, err := eng.TopKMetered(context.Background(), cs.Q, cs.K); err != nil {
				t.Errorf("top-k during checkpoints: %v", err)
				return
			}
			if eng.Dim() != cs.M || eng.Stats() == nil || eng.Index() == nil || !eng.Mutable() {
				t.Error("a reader saw the engine change shape across a checkpoint")
				return
			}
			n++
		}
	}()
	for i := 0; i < 300; i++ {
		mustApply(t, eng, Op{Kind: OpInsert, Tuple: randOpTuple(rng, cs.M)})
	}
	close(done)
	reads := <-read
	if st := eng.DurabilityStats(); st.Checkpoints < 5 || st.LastCheckpointError != "" {
		t.Fatalf("the writer's checkpoints: %+v, want at least 5 and no error", st)
	}
	t.Logf("%d checkpoints under %d reads", eng.DurabilityStats().Checkpoints, reads)
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
	// A checkpoint that an Apply in flight at Close triggers afterwards is
	// refused: the files it would read are unmapped.
	eng.dur.ckptHook = nil
	if err := eng.Checkpoint(); err == nil {
		t.Fatal("a checkpoint ran after Close")
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

// BenchmarkCheckpointWriters runs 1, 2 and 4 writers applying 1 500
// single-insert batches each, back to back, over ST n = 50 000 with a
// 256 KiB checkpoint threshold and an fsync per batch, so batches land
// during the rewrites the writers trigger. It reports the rewrites
// (generations minted), the share of them that won (published, cut the
// log and swapped), the largest log seen after a batch, and the p99 of
// Apply, which a writer that triggers a checkpoint pays for.
func BenchmarkCheckpointWriters(b *testing.B) {
	const perWriter = 1500
	d := dataset.GenerateST(dataset.STConfig{N: 50000, Seed: 1})
	for _, writers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			dir := b.TempDir()
			saveDir(b, dir, d.Tuples, d.M)
			eng := openDurable(b, dir, Config{CheckpointBytes: 256 << 10, CacheEntries: -1})
			defer eng.Close()
			var (
				mu      sync.Mutex
				lat     []time.Duration
				peakLog int64
			)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(seed))
						mine := make([]time.Duration, 0, perWriter)
						var peak int64
						for j := 0; j < perWriter; j++ {
							tu := d.Tuples[rng.Intn(d.N())]
							t0 := time.Now()
							if _, err := eng.Apply([]Op{{Kind: OpInsert, Tuple: tu}}); err != nil {
								b.Error(err)
								return
							}
							mine = append(mine, time.Since(t0))
							peak = max(peak, eng.DurabilityStats().LogBytes)
						}
						mu.Lock()
						lat = append(lat, mine...)
						peakLog = max(peakLog, peak)
						mu.Unlock()
					}(int64(i*writers + w))
				}
				wg.Wait()
			}
			b.StopTimer()
			st := eng.DurabilityStats()
			slices.Sort(lat)
			b.ReportMetric(float64(st.Generation), "rewrites")
			b.ReportMetric(float64(st.Checkpoints)/float64(max(st.Generation, 1)), "won-share")
			b.ReportMetric(float64(peakLog)/1000, "peak-log-KB")
			b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds())/1000, "apply-p99-ms")
		})
	}
}
