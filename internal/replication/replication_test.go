package replication

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/lists"
	"repro/internal/vec"
	"repro/internal/wal"
)

const testDims = 4

// genTuples builds a dense random dataset in [0,1]^testDims.
func genTuples(rng *rand.Rand, n int) []vec.Sparse {
	out := make([]vec.Sparse, n)
	for i := range out {
		entries := make([]vec.Entry, testDims)
		for d := 0; d < testDims; d++ {
			entries[d] = vec.Entry{Dim: d, Val: rng.Float64()}
		}
		out[i] = vec.MustSparse(entries...)
	}
	return out
}

func saveDataset(t testing.TB, dir string, tuples []vec.Sparse) {
	t.Helper()
	if err := lists.SaveDataset(filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat"), tuples, testDims); err != nil {
		t.Fatal(err)
	}
}

// primaryHarness is a live primary: durable engine + shipper + listener.
type primaryHarness struct {
	dir  string
	eng  *engine.Engine
	prim *Primary
	addr string
}

func startPrimary(t testing.TB, dir string, ack AckMode, ackTimeout time.Duration) *primaryHarness {
	t.Helper()
	eng, err := engine.OpenDir(dir, 0, engine.Config{WAL: true, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	prim, err := NewPrimary(eng, dir, PrimaryConfig{
		HTTPAddr:          ":8080",
		AckMode:           ack,
		AckTimeout:        ackTimeout,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go prim.Serve(ln)
	return &primaryHarness{dir: dir, eng: eng, prim: prim, addr: ln.Addr().String()}
}

func (p *primaryHarness) close(t testing.TB) {
	t.Helper()
	p.prim.Close()
	if err := p.eng.Close(); err != nil {
		t.Fatal(err)
	}
}

// followerHarness is a running Follower with its lifecycle context.
type followerHarness struct {
	f      *Follower
	cancel context.CancelFunc
}

func startFollower(t testing.TB, dir, addr string) *followerHarness {
	t.Helper()
	f := NewFollower(FollowerConfig{
		Dir:           dir,
		PrimaryAddr:   addr,
		RetryInterval: 25 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	go f.Run(ctx)
	return &followerHarness{f: f, cancel: cancel}
}

// stop kills the follower (connection severed, engine closed so the
// directory's flock frees for the next incarnation).
func (fh *followerHarness) stop(t testing.TB) {
	t.Helper()
	fh.cancel()
	select {
	case <-fh.f.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("follower did not stop")
	}
	if err := fh.f.Close(); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t testing.TB, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", desc)
}

// testQueries is a fixed probe set spanning subspaces and weights.
func testQueries(t testing.TB) []vec.Query {
	t.Helper()
	specs := []struct {
		dims    []int
		weights []float64
	}{
		{[]int{0, 1}, []float64{0.8, 0.4}},
		{[]int{1, 2}, []float64{0.3, 0.9}},
		{[]int{0, 2, 3}, []float64{0.5, 0.6, 0.7}},
		{[]int{0, 1, 2, 3}, []float64{0.9, 0.2, 0.5, 0.8}},
	}
	qs := make([]vec.Query, len(specs))
	for i, s := range specs {
		q, err := vec.NewQuery(s.dims, s.weights)
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	return qs
}

// assertEnginesEqual proves a and b serve bit-identical /analyze and
// /topk answers for the probe set (cache bypassed: the comparison is
// about state, not cached artifacts).
func assertEnginesEqual(t testing.TB, a, b *engine.Engine) {
	t.Helper()
	opts := engine.Options{Options: core.Options{Method: core.MethodCPT}, NoCache: true}
	for qi, q := range testQueries(t) {
		aa, err := a.Analyze(context.Background(), q, 5, opts)
		if err != nil {
			t.Fatalf("query %d on a: %v", qi, err)
		}
		ba, err := b.Analyze(context.Background(), q, 5, opts)
		if err != nil {
			t.Fatalf("query %d on b: %v", qi, err)
		}
		if !reflect.DeepEqual(aa.Result, ba.Result) {
			t.Fatalf("query %d results diverged:\n  a %+v\n  b %+v", qi, aa.Result, ba.Result)
		}
		if !reflect.DeepEqual(aa.Regions, ba.Regions) {
			t.Fatalf("query %d regions diverged:\n  a %+v\n  b %+v", qi, aa.Regions, ba.Regions)
		}
	}
}

// randBatch builds 1..4 random ops against a dataset of n ids. Ops may
// fail (update/delete of a tombstoned id) — deterministically on both
// sides, which is part of what the property tests prove.
func randBatch(rng *rand.Rand, n int) []engine.Op {
	ops := make([]engine.Op, 1+rng.Intn(4))
	for i := range ops {
		switch rng.Intn(3) {
		case 0:
			entries := make([]vec.Entry, testDims)
			for d := 0; d < testDims; d++ {
				entries[d] = vec.Entry{Dim: d, Val: rng.Float64()}
			}
			ops[i] = engine.Op{Kind: engine.OpInsert, Tuple: vec.MustSparse(entries...)}
		case 1:
			ops[i] = engine.Op{Kind: engine.OpUpdate, ID: rng.Intn(n),
				Tuple: vec.MustSparse(vec.Entry{Dim: rng.Intn(testDims), Val: rng.Float64()})}
		default:
			ops[i] = engine.Op{Kind: engine.OpDelete, ID: rng.Intn(n)}
		}
	}
	return ops
}

func applyRandom(t testing.TB, eng *engine.Engine, rng *rand.Rand, batches int) {
	t.Helper()
	for i := 0; i < batches; i++ {
		if _, err := eng.Apply(randBatch(rng, eng.N())); err != nil {
			t.Fatal(err)
		}
	}
}

func caughtUp(p *primaryHarness, fh *followerHarness) func() bool {
	return func() bool {
		eng := fh.f.Engine()
		return eng != nil && eng.LastSeq() == p.eng.LastSeq()
	}
}

// TestFollowerBootstrapAndStream: an empty-directory follower seeds
// itself with a snapshot transfer, then applies the live stream, and
// its answers are bit-identical to the primary's.
func TestFollowerBootstrapAndStream(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pdir, fdir := t.TempDir(), t.TempDir()
	saveDataset(t, pdir, genTuples(rng, 40))
	p := startPrimary(t, pdir, AckAsync, 0)
	defer p.close(t)

	applyRandom(t, p.eng, rng, 3)

	fh := startFollower(t, fdir, p.addr)
	defer fh.stop(t)
	waitFor(t, "bootstrap + catch-up", caughtUp(p, fh))
	st := fh.f.Stats()
	if st.SnapshotsLoaded != 1 {
		t.Fatalf("fresh follower loaded %d snapshots, want 1", st.SnapshotsLoaded)
	}
	assertEnginesEqual(t, p.eng, fh.f.Engine())

	// Live stream: new batches flow without re-seeding.
	applyRandom(t, p.eng, rng, 4)
	waitFor(t, "live catch-up", caughtUp(p, fh))
	assertEnginesEqual(t, p.eng, fh.f.Engine())
	st = fh.f.Stats()
	if st.SnapshotsLoaded != 1 || st.BytesReceived == 0 {
		t.Fatalf("stream stats %+v", st)
	}
	ps := p.prim.Stats()
	if len(ps.Followers) != 1 || !ps.Followers[0].Streaming {
		t.Fatalf("primary stats %+v", ps)
	}
	waitFor(t, "acks to reach the primary", func() bool {
		s := p.prim.Stats()
		return len(s.Followers) == 1 && s.Followers[0].AckedSeq == p.eng.LastSeq()
	})
}

// cutLogTail truncates the follower's closed WAL at a random committed
// record boundary, simulating a standby that lost its unsynced tail —
// the reconnect must resume from the earlier sequence and re-receive
// the difference.
func cutLogTail(t testing.TB, rng *rand.Rand, dir string) {
	t.Helper()
	path := filepath.Join(dir, wal.LogName)
	info, err := wal.Inspect(path)
	if err != nil || info.Records == 0 {
		return
	}
	keep := rng.Intn(info.Records + 1)
	cut := info.Size
	if keep < info.Records {
		cut = info.Offsets[keep]
	}
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerResumeProperty is the acceptance property test of the
// live-stream path: the follower is repeatedly killed at random frame
// boundaries (sometimes with its log tail cut back to an earlier
// committed record), reconnects with its resume sequence, and after
// every catch-up its /analyze answers are bit-identical to the
// primary's at the same sequence number.
func TestFollowerResumeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pdir, fdir := t.TempDir(), t.TempDir()
	saveDataset(t, pdir, genTuples(rng, 40))
	p := startPrimary(t, pdir, AckAsync, 0)
	defer p.close(t)

	fh := startFollower(t, fdir, p.addr)
	waitFor(t, "initial sync", caughtUp(p, fh))

	for round := 0; round < 8; round++ {
		// Kill between two frames (the follower applies frame-at-a-time,
		// so any stop is a frame boundary).
		fh.stop(t)
		if round%2 == 1 {
			cutLogTail(t, rng, fdir)
		}
		// The primary moves on while the standby is down.
		applyRandom(t, p.eng, rng, 1+rng.Intn(3))
		fh = startFollower(t, fdir, p.addr)
		waitFor(t, fmt.Sprintf("round %d catch-up", round), caughtUp(p, fh))
		assertEnginesEqual(t, p.eng, fh.f.Engine())
	}
	st := fh.f.Stats()
	if st.SnapshotsLoaded != 0 {
		t.Fatalf("resume rounds forced %d snapshots — resume path not exercised", st.SnapshotsLoaded)
	}
	fh.stop(t)
}

// TestSnapshotFallback is the acceptance test of the catch-up path: a
// checkpoint truncates the primary's log past the follower's sequence,
// so the reconnecting follower must be re-seeded by a full snapshot
// transfer — after which its answers are again bit-identical.
func TestSnapshotFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pdir, fdir := t.TempDir(), t.TempDir()
	saveDataset(t, pdir, genTuples(rng, 40))
	p := startPrimary(t, pdir, AckAsync, 0)
	defer p.close(t)

	fh := startFollower(t, fdir, p.addr)
	waitFor(t, "initial sync", caughtUp(p, fh))
	fh.stop(t)

	// While the standby is down: more batches, then a checkpoint that
	// folds and truncates them all — the frames the standby needs are
	// gone from both the log and the shipper.
	applyRandom(t, p.eng, rng, 4)
	if err := p.eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ms := p.prim.Stats().MinStreamSeq; ms == 0 {
		t.Fatal("the checkpoint did not advance min_stream_seq")
	}
	applyRandom(t, p.eng, rng, 2) // post-checkpoint traffic streams normally

	fh = startFollower(t, fdir, p.addr)
	defer fh.stop(t)
	waitFor(t, "snapshot re-seed + catch-up", caughtUp(p, fh))
	if st := fh.f.Stats(); st.SnapshotsLoaded != 1 {
		t.Fatalf("follower loaded %d snapshots, want exactly 1 (fallback)", st.SnapshotsLoaded)
	}
	if ss := p.prim.Stats().SnapshotsServed; ss < 1 {
		t.Fatalf("primary served %d snapshots", ss)
	}
	assertEnginesEqual(t, p.eng, fh.f.Engine())
}

// TestCheckpointLockstepFold: a connected follower receives the
// checkpoint manifest and folds its own overlay in lockstep — its
// generation advances and its log empties — without disturbing
// equality. Before the fold and after it, the follower's log holds the
// primary's frames byte for byte: it appends what it receives verbatim.
func TestCheckpointLockstepFold(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pdir, fdir := t.TempDir(), t.TempDir()
	saveDataset(t, pdir, genTuples(rng, 40))
	p := startPrimary(t, pdir, AckAsync, 0)
	defer p.close(t)
	fh := startFollower(t, fdir, p.addr)
	defer fh.stop(t)
	waitFor(t, "initial sync", caughtUp(p, fh))

	applyRandom(t, p.eng, rng, 3)
	waitFor(t, "pre-checkpoint catch-up", caughtUp(p, fh))
	assertSameLog(t, "streamed", pdir, fdir)
	if err := p.eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "lockstep fold", func() bool { return fh.f.Stats().LocalFolds >= 1 })
	waitFor(t, "follower generation advance", func() bool {
		eng := fh.f.Engine()
		return eng != nil && eng.DurabilityStats().Generation >= 1
	})
	applyRandom(t, p.eng, rng, 2)
	waitFor(t, "post-checkpoint catch-up", caughtUp(p, fh))
	assertEnginesEqual(t, p.eng, fh.f.Engine())
	assertSameLog(t, "after the fold", pdir, fdir)
}

// tailSink sits between the engine and its shipper and measures each
// checkpoint's tail: the frames committed before the checkpoint's event
// with sequences past what it folds. Its methods run under the engine's
// write lock.
type tailSink struct {
	*Primary
	last uint64
	tail atomic.Uint64 // the latest checkpoint's
}

func (s *tailSink) CommitFrame(seq uint64, frame []byte) {
	s.last = seq
	s.Primary.CommitFrame(seq, frame)
}

func (s *tailSink) CheckpointEvent(man wal.Manifest) {
	s.tail.Store(s.last - man.LastSeq)
	s.Primary.CheckpointEvent(man)
}

// TestCheckpointTailStreams: batches that land during the primary's
// rewrite are the cut log's tail, and the shipper keeps them too. A
// writer runs through forced checkpoints until one publish keeps a
// non-empty tail. The connected follower then ends equal to the
// primary, with every frame of its log the primary's frame of the same
// sequence, byte for byte; and a follower that bootstraps after that
// checkpoint streams the tail from the shipper, which must therefore
// cut its history by sequence and not at the checkpoint event, and
// ends equal as well.
func TestCheckpointTailStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pdir, fdir, bdir := t.TempDir(), t.TempDir(), t.TempDir()
	saveDataset(t, pdir, genTuples(rng, 40))
	p := startPrimary(t, pdir, AckAsync, 0)
	defer p.close(t)
	fh := startFollower(t, fdir, p.addr)
	defer fh.stop(t)
	waitFor(t, "initial sync", caughtUp(p, fh))
	applyRandom(t, p.eng, rng, 3)
	sink := &tailSink{Primary: p.prim, last: p.eng.LastSeq()}
	p.eng.SetReplicationSink(sink)

	var tail uint64
	for round := 0; round < 50 && tail == 0; round++ {
		ckpt := make(chan error, 1)
		go func() { ckpt <- p.eng.Checkpoint() }()
		wrng := rand.New(rand.NewSource(int64(round)))
	write:
		for {
			if _, err := p.eng.Apply(randBatch(wrng, p.eng.N())); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-ckpt:
				if err != nil {
					t.Fatal(err)
				}
				break write
			default:
			}
		}
		tail = sink.tail.Load()
	}
	if tail == 0 {
		t.Fatal("no checkpoint kept a tail in 50 rounds")
	}
	man, _, err := wal.LoadManifest(pdir)
	if err != nil {
		t.Fatal(err)
	}
	if ps := p.prim.Stats(); ps.MinStreamSeq != man.LastSeq || uint64(ps.BufferedRecords) != p.eng.LastSeq()-man.LastSeq {
		t.Fatalf("shipper %+v after the checkpoint through seq %d: want every frame after it", ps, man.LastSeq)
	}
	t.Logf("checkpoint through seq %d kept a tail of %d frames", man.LastSeq, tail)

	late := startFollower(t, bdir, p.addr)
	defer late.stop(t)
	waitFor(t, "late bootstrap + the tail", caughtUp(p, late))
	waitFor(t, "connected follower catch-up", caughtUp(p, fh))
	assertEnginesEqual(t, p.eng, fh.f.Engine())
	assertEnginesEqual(t, p.eng, late.f.Engine())

	applyRandom(t, p.eng, rng, 3)
	waitFor(t, "post-checkpoint catch-up", caughtUp(p, fh))
	waitFor(t, "late follower catch-up", caughtUp(p, late))
	assertEnginesEqual(t, p.eng, fh.f.Engine())
	assertEnginesEqual(t, p.eng, late.f.Engine())
	primary := map[uint64][]byte{}
	if _, err := wal.ReplayFrames(filepath.Join(pdir, wal.LogName), 0, func(seq uint64, frame []byte) error {
		primary[seq] = frame
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{fdir, bdir} {
		n := 0
		if _, err := wal.ReplayFrames(filepath.Join(dir, wal.LogName), 0, func(seq uint64, frame []byte) error {
			n++
			if !bytes.Equal(frame, primary[seq]) {
				return fmt.Errorf("frame %d differs:\nprimary %x\nstandby %x", seq, primary[seq], frame)
			}
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if n == 0 {
			t.Fatalf("%s: the standby's log is empty, nothing compared", dir)
		}
	}
}

// TestQuorumAckDurability is the acceptance test of quorum mode: a
// write acknowledged under -ack=quorum is fsynced on a follower before
// Apply returns, so killing the primary process (its engine abandoned
// un-Closed, kill -9 semantics) loses nothing: the standby's reopened
// state is bit-identical to the primary's final state.
func TestQuorumAckDurability(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pdir, fdir := t.TempDir(), t.TempDir()
	saveDataset(t, pdir, genTuples(rng, 40))
	p := startPrimary(t, pdir, AckQuorum, 400*time.Millisecond)

	// No followers: the quorum is unsatisfiable and the write must
	// report it (while still committing locally).
	if _, err := p.eng.Apply(randBatch(rng, p.eng.N())); err == nil {
		t.Fatal("quorum write with zero followers succeeded")
	} else if got := p.eng.LastSeq(); got != 1 {
		t.Fatalf("failed-quorum batch not committed locally (seq %d)", got)
	}
	if p.prim.Stats().QuorumFailures != 1 {
		t.Fatalf("quorum failures %d, want 1", p.prim.Stats().QuorumFailures)
	}

	fh := startFollower(t, fdir, p.addr)
	waitFor(t, "follower streaming", func() bool {
		s := p.prim.Stats()
		return len(s.Followers) == 1 && s.Followers[0].Streaming
	})
	for i := 0; i < 10; i++ {
		if _, err := p.eng.Apply(randBatch(rng, p.eng.N())); err != nil {
			t.Fatalf("quorum apply %d: %v", i, err)
		}
	}
	finalSeq := p.eng.LastSeq()

	// Kill the primary process: sever replication, abandon the engine
	// without Close (nothing is flushed beyond what each Apply already
	// fsynced — and every quorum ack implies the follower fsynced too).
	p.prim.Close()
	fh.stop(t)

	// The standby alone must hold every acknowledged batch.
	standby, err := engine.OpenDir(fdir, 0, engine.Config{WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()
	if standby.LastSeq() != finalSeq {
		t.Fatalf("standby reopened at seq %d, primary acknowledged through %d", standby.LastSeq(), finalSeq)
	}
	assertEnginesEqual(t, p.eng, standby)
}

// TestDatasetIDMismatch: a follower directory seeded from a different
// dataset is refused instead of silently replaying foreign frames.
func TestDatasetIDMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	pdir, fdir := t.TempDir(), t.TempDir()
	saveDataset(t, pdir, genTuples(rng, 20))
	p := startPrimary(t, pdir, AckAsync, 0)
	defer p.close(t)

	// Fake a foreign identity with a plausible local dataset.
	saveDataset(t, fdir, genTuples(rng, 20))
	if err := writeDatasetID(fdir, "deadbeefdeadbeefdeadbeefdeadbeef"); err != nil {
		t.Fatal(err)
	}
	fh := startFollower(t, fdir, p.addr)
	defer fh.stop(t)
	waitFor(t, "mismatch error", func() bool {
		st := fh.f.Stats()
		return st.LastError != "" && st.Reconnects > 0
	})
	if st := fh.f.Stats(); st.Connected {
		t.Fatalf("mismatched follower reports connected: %+v", st)
	}
}
