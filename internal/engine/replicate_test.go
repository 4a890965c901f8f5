package engine

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fixture"
	"repro/internal/vec"
	"repro/internal/wal"
)

// recordingSink captures the commit stream a primary shipper would see.
type recordingSink struct {
	seqs   []uint64
	frames [][]byte
	ckpts  []wal.Manifest
}

func (r *recordingSink) CommitFrame(seq uint64, frame []byte) {
	r.seqs = append(r.seqs, seq)
	r.frames = append(r.frames, frame)
}

func (r *recordingSink) CheckpointEvent(man wal.Manifest) {
	r.ckpts = append(r.ckpts, man)
}

// TestCommitSinkStream: every Apply batch reaches the sink as a
// decodable frame with contiguous sequence numbers, in commit order.
func TestCommitSinkStream(t *testing.T) {
	tuples, _, _ := fixture.RunningExample()
	dir := t.TempDir()
	saveDir(t, dir, tuples, 2)
	eng := openDurable(t, dir, Config{})
	defer eng.Close()
	sink := &recordingSink{}
	eng.SetReplicationSink(sink)

	mustApply(t, eng, Op{Kind: OpInsert, Tuple: vec.MustSparse(vec.Entry{Dim: 0, Val: 0.5})})
	mustApply(t, eng,
		Op{Kind: OpUpdate, ID: 1, Tuple: vec.MustSparse(vec.Entry{Dim: 1, Val: 0.7})},
		Op{Kind: OpDelete, ID: 2},
	)
	if len(sink.seqs) != 2 || sink.seqs[0] != 1 || sink.seqs[1] != 2 {
		t.Fatalf("sink saw seqs %v", sink.seqs)
	}
	if _, ops, err := wal.DecodeRecord(sink.frames[0]); err != nil || len(ops) != 1 || ops[0].Kind != wal.OpInsert {
		t.Fatalf("frame 1 ops %+v, err %v", ops, err)
	}
	seq, ops, err := wal.DecodeRecord(sink.frames[1])
	if err != nil || seq != 2 || len(ops) != 2 {
		t.Fatalf("frame 2 decodes to seq=%d ops=%d err=%v", seq, len(ops), err)
	}
	if ops[0].Kind != wal.OpUpdate || ops[0].ID != 1 || ops[1].Kind != wal.OpDelete || ops[1].ID != 2 {
		t.Fatalf("frame 2 ops %+v", ops)
	}
}

// TestApplyReplicatedSequenceDiscipline: a standby accepts exactly the
// next sequence number, skips duplicates without effect, refuses gaps
// and corrupt frames, and logs the frame it accepts byte for byte.
func TestApplyReplicatedSequenceDiscipline(t *testing.T) {
	tuples, _, _ := fixture.RunningExample()
	dir := t.TempDir()
	saveDir(t, dir, tuples, 2)
	eng := openDurable(t, dir, Config{})
	defer eng.Close()

	ins := []wal.Op{{Kind: wal.OpInsert, Tuple: vec.MustSparse(vec.Entry{Dim: 0, Val: 0.9})}}
	frame := func(seq uint64) []byte {
		f, err := wal.EncodeRecord(seq, ins)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if _, _, err := eng.ApplyReplicated(frame(2)); err == nil {
		t.Fatal("gap (seq 2 before 1) accepted")
	}
	bad := frame(1)
	bad[len(bad)-1] ^= 0xff
	if _, _, err := eng.ApplyReplicated(bad); err == nil {
		t.Fatal("frame with a bad crc accepted")
	}
	seq, res, err := eng.ApplyReplicated(frame(1))
	if err != nil || seq != 1 || res.Applied != 1 {
		t.Fatalf("seq 1: seq=%d applied=%d err=%v", seq, res.Applied, err)
	}
	n := eng.N()
	// Duplicate delivery: no error, no effect.
	_, res, err = eng.ApplyReplicated(frame(1))
	if err != nil || res.Applied != 0 || eng.N() != n {
		t.Fatalf("duplicate seq 1: applied=%d n=%d (want %d) err=%v", res.Applied, eng.N(), n, err)
	}
	if eng.LastSeq() != 1 {
		t.Fatalf("LastSeq %d after one replicated batch", eng.LastSeq())
	}
	var logged [][]byte
	if _, err := wal.ReplayFrames(filepath.Join(dir, wal.LogName), 0, func(_ uint64, f []byte) error {
		logged = append(logged, f)
		return nil
	}); err != nil || len(logged) != 1 || !bytes.Equal(logged[0], frame(1)) {
		t.Fatalf("log holds %x (err %v), want the shipped frame %x", logged, err, frame(1))
	}
	// Replicated batches survive a reopen like any logged batch.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	re := openDurable(t, dir, Config{})
	defer re.Close()
	if re.LastSeq() != 1 || re.N() != n {
		t.Fatalf("reopen: seq=%d n=%d (want 1, %d)", re.LastSeq(), re.N(), n)
	}
}

// TestCommitGateQuorumError: a failing commit gate surfaces as
// ErrQuorum while the batch itself stays applied and durable.
func TestCommitGateQuorumError(t *testing.T) {
	tuples, _, _ := fixture.RunningExample()
	dir := t.TempDir()
	saveDir(t, dir, tuples, 2)
	eng := openDurable(t, dir, Config{})
	defer eng.Close()
	eng.SetCommitGate(func(seq uint64) error { return fmt.Errorf("no followers") })

	n := eng.N()
	res, err := eng.Apply([]Op{{Kind: OpInsert, Tuple: vec.MustSparse(vec.Entry{Dim: 1, Val: 0.4})}})
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("gate failure yielded %v, want ErrQuorum", err)
	}
	if res.Applied != 1 || eng.N() != n+1 || eng.LastSeq() != 1 {
		t.Fatalf("batch not applied despite quorum failure: %+v n=%d seq=%d", res, eng.N(), eng.LastSeq())
	}
}

// TestCheckpointEventSink: a checkpoint reaches the sink with its
// manifest, after the frames it folds.
func TestCheckpointEventSink(t *testing.T) {
	tuples, _, _ := fixture.RunningExample()
	dir := t.TempDir()
	saveDir(t, dir, tuples, 2)
	eng := openDurable(t, dir, Config{CheckpointBytes: -1})
	defer eng.Close()
	sink := &recordingSink{}
	eng.SetReplicationSink(sink)

	mustApply(t, eng, Op{Kind: OpInsert, Tuple: vec.MustSparse(vec.Entry{Dim: 0, Val: 0.3})})
	mustApply(t, eng, Op{Kind: OpDelete, ID: 0})
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if len(sink.ckpts) != 1 {
		t.Fatalf("sink checkpoints %v", sink.ckpts)
	}
	if got := sink.ckpts[0].LastSeq; got != 2 {
		t.Fatalf("checkpoint folded through seq %d, want 2", got)
	}
}

// TestOpenDirManifestMovedTyped: a snapshot open that loses the race
// against checkpoint publication on every attempt fails with the typed
// ErrManifestMoved, not the last raw I/O error. The race hook moves the
// manifest deterministically in the race window.
func TestOpenDirManifestMovedTyped(t *testing.T) {
	dir := t.TempDir()
	// Seed a manifest naming files that do not exist, as if the named
	// generation were swept by the writer right after publication.
	gen := uint64(1)
	writeMan := func() {
		tn, ln := wal.GenFileNames(gen)
		if err := (wal.Manifest{Gen: gen, Tuples: tn, Lists: ln, LastSeq: gen}).Save(dir); err != nil {
			t.Fatal(err)
		}
	}
	writeMan()
	calls := 0
	openSnapshotRaceHook = func() {
		calls++
		gen++ // every attempt sees the manifest move under it
		writeMan()
	}
	defer func() { openSnapshotRaceHook = nil }()

	_, err := OpenDir(dir, 0, Config{ReadOnly: true})
	if !errors.Is(err, ErrManifestMoved) {
		t.Fatalf("raced open returned %v, want ErrManifestMoved", err)
	}
	if calls != SnapshotOpenAttempts {
		t.Fatalf("open made %d attempts, want %d", calls, SnapshotOpenAttempts)
	}
	// Sanity: without the race the same directory still fails, but with
	// the raw cause (the files really are missing), not the typed race
	// error.
	openSnapshotRaceHook = nil
	if _, err := OpenDir(dir, 0, Config{ReadOnly: true}); err == nil || errors.Is(err, ErrManifestMoved) {
		t.Fatalf("quiescent open returned %v, want a raw open failure", err)
	}
	_ = os.Remove(filepath.Join(dir, wal.ManifestName))
}
