package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/vec"
)

func testOps(n int) []Op {
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			ops = append(ops, Op{Kind: OpInsert, Tuple: vec.MustSparse(
				vec.Entry{Dim: i, Val: 0.5}, vec.Entry{Dim: i + 1, Val: 0.25})})
		case 1:
			ops = append(ops, Op{Kind: OpUpdate, ID: int64(i), Tuple: vec.MustSparse(
				vec.Entry{Dim: 0, Val: 0.125})})
		default:
			ops = append(ops, Op{Kind: OpDelete, ID: int64(i)})
		}
	}
	return ops
}

// replayAll opens the log collecting every record past from.
func replayAll(t *testing.T, path string, from uint64) (batches [][]Op, seqs []uint64, res ReplayResult) {
	t.Helper()
	w, res, err := Open(path, SyncPolicy{Mode: SyncNone}, from, func(seq uint64, ops []Op) error {
		batches = append(batches, ops)
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return batches, seqs, res
}

func TestAppendReplayRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, res, err := Open(path, SyncPolicy{Mode: SyncBatch}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 0 || res.LastSeq != 0 {
		t.Fatalf("fresh log replay %+v", res)
	}
	want := [][]Op{testOps(1), testOps(4), testOps(2)}
	for i, ops := range want {
		seq, err := w.Append(ops)
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("append %d got seq %d", i, seq)
		}
	}
	if w.Appends() != 3 || w.Syncs() < 3 {
		t.Fatalf("appends=%d syncs=%d", w.Appends(), w.Syncs())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got, seqs, res := replayAll(t, path, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(seqs, []uint64{1, 2, 3}) || res.LastSeq != 3 || res.TruncatedBytes != 0 {
		t.Fatalf("seqs %v res %+v", seqs, res)
	}
	if res.Ops != 7 {
		t.Fatalf("replayed ops %d, want 7", res.Ops)
	}

	// Replaying from a checkpoint seq skips the folded prefix.
	got, seqs, res = replayAll(t, path, 2)
	if len(got) != 1 || seqs[0] != 3 || res.SkippedRecords != 2 {
		t.Fatalf("from=2 replay got %d batches seqs %v res %+v", len(got), seqs, res)
	}
	if !reflect.DeepEqual(got[0], want[2]) {
		t.Fatalf("from=2 batch mismatch")
	}
}

// TestTornTailEveryByte is the frame-repair property: a log cut at ANY
// byte boundary of its final record reopens to exactly the committed
// prefix, and the repaired log accepts new appends.
func TestTornTailEveryByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, _, err := Open(path, SyncPolicy{Mode: SyncBatch}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]Op{testOps(2), testOps(3), testOps(5)}
	for _, ops := range batches {
		if _, err := w.Append(ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 3 {
		t.Fatalf("records %d", info.Records)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastStart := info.Offsets[2]

	for cut := lastStart; cut <= info.Size; cut++ {
		cp := filepath.Join(dir, "cut.log")
		if err := os.WriteFile(cp, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, _, res := replayAll(t, cp, 0)
		wantN := 2
		if cut == info.Size {
			wantN = 3
		}
		if len(got) != wantN {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), wantN)
		}
		if cut < info.Size && res.TruncatedBytes != cut-lastStart {
			t.Fatalf("cut %d: truncated %d bytes, want %d", cut, res.TruncatedBytes, cut-lastStart)
		}
		// The repaired log must keep working: append and re-replay.
		w2, _, err := Open(cp, SyncPolicy{Mode: SyncNone}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := w2.Append(testOps(1))
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(wantN + 1); seq != want {
			t.Fatalf("cut %d: post-repair seq %d, want %d", cut, seq, want)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		if got, _, _ := replayAll(t, cp, 0); len(got) != wantN+1 {
			t.Fatalf("cut %d: %d records after repair+append", cut, len(got))
		}
	}
}

// TestZeroFillTailRepair: a crash can extend the file with zeroed
// blocks (metadata persisted, data not); a zeroed "frame" even forges a
// passing CRC (plen=0, crc=0). Recovery must truncate such tails —
// short or long — instead of refusing the log, while zeroed bytes with
// genuine committed records after them stay ErrCorrupt.
func TestZeroFillTailRepair(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, records int, tail []byte) string {
		t.Helper()
		p := filepath.Join(dir, name)
		w, _, err := Open(p, SyncPolicy{Mode: SyncNone}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < records; i++ {
			if _, err := w.Append(testOps(2)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, append(raw, tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	for _, tailLen := range []int{8, 16, 100, 4096} {
		p := write(fmt.Sprintf("zero%d.log", tailLen), 2, make([]byte, tailLen))
		got, _, res := replayAll(t, p, 0)
		if len(got) != 2 || res.TruncatedBytes != int64(tailLen) {
			t.Fatalf("tail %d: recovered %d records, truncated %d bytes", tailLen, len(got), res.TruncatedBytes)
		}
	}

	// Zeroed bytes followed by a committed record: corruption, refused.
	p := write("zeromid.log", 1, make([]byte, 16))
	w, _, err := Open(filepath.Join(dir, "donor.log"), SyncPolicy{Mode: SyncNone}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(testOps(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	donor, err := os.ReadFile(filepath.Join(dir, "donor.log"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, append(raw, donor[headerSize:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(p, SyncPolicy{Mode: SyncNone}, 0, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zeros buried under a record: err %v, want ErrCorrupt", err)
	}
}

// TestMidLogCorruption: a bad frame with committed records after it is
// refused, not silently truncated.
func TestMidLogCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	w, _, err := Open(path, SyncPolicy{Mode: SyncBatch}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(testOps(3)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the middle record.
	raw[info.Offsets[1]+frameSize+4] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(path, SyncPolicy{Mode: SyncNone}, 0, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log corruption error %v, want ErrCorrupt", err)
	}
	if _, err := Inspect(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("inspect error %v, want ErrCorrupt", err)
	}
}

// TestTruncateKeepsSequence: CutBefore drops the frames before a cut
// point, keeps the ones after it byte for byte, and the next append
// carries on the sequence. A temporary log a crash left behind is
// removed by the next Open.
func TestTruncateKeepsSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := Open(path, SyncPolicy{Mode: SyncBatch}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cut int64
	for i := 0; i < 4; i++ {
		if i == 2 {
			cut = w.Size()
		}
		if _, err := w.Append(testOps(2)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CutBefore(w.Size() + 1); err == nil {
		t.Fatal("a cut past the log's end was accepted")
	}
	if err := w.CutBefore(cut); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]byte{}, before[:headerSize]...), before[cut:]...); !bytes.Equal(after, want) {
		t.Fatalf("cut log is %d bytes, want the header and the %d bytes from the cut on", len(after), len(before)-int(cut))
	}
	if w.Size() != int64(len(after)) {
		t.Fatalf("post-cut size %d, file holds %d", w.Size(), len(after))
	}
	seq, err := w.Append(testOps(1))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 5 {
		t.Fatalf("post-cut seq %d, want 5 (monotonic across the cut)", seq)
	}
	if err := w.CutBefore(w.Size()); err != nil {
		t.Fatal(err)
	}
	if w.Size() != headerSize {
		t.Fatalf("a cut at the end left %d bytes", w.Size())
	}
	if seq, err := w.Append(testOps(1)); err != nil || seq != 6 {
		t.Fatalf("append after an emptying cut: seq %d, %v", seq, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+tempSuffix, []byte("half a cut"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Reopen as after a checkpoint at seq 5: only record 6 replays.
	got, seqs, _ := replayAll(t, path, 5)
	if len(got) != 1 || seqs[0] != 6 {
		t.Fatalf("replay after the cut: %d records, seqs %v", len(got), seqs)
	}
	if _, err := os.Stat(path + tempSuffix); !os.IsNotExist(err) {
		t.Fatalf("open left the temporary log of an interrupted cut: %v", err)
	}
}

// TestCutBeforeIntervalSync: the interval syncer fsyncs without the
// writer's mutex, so cuts swap the file under it; no append is lost and
// the syncer never reports the swapped-out file's error.
func TestCutBeforeIntervalSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := Open(path, SyncPolicy{Mode: SyncInterval, Interval: time.Microsecond}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var lastSeq uint64
	for i := 0; i < 200; i++ {
		off := w.Size()
		if lastSeq, err = w.Append(testOps(1)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if err := w.CutBefore(off); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, seqs, _ := replayAll(t, path, 0)
	if len(seqs) == 0 || seqs[len(seqs)-1] != lastSeq {
		t.Fatalf("after the cuts the log replays seqs %v, want it to end at %d", seqs, lastSeq)
	}
}

func TestSyncPolicies(t *testing.T) {
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
	if _, err := ParseSyncPolicy("-5ms"); err == nil {
		t.Fatal("negative interval accepted")
	}
	for _, tc := range []struct {
		in   string
		mode SyncMode
	}{{"", SyncBatch}, {"batch", SyncBatch}, {"none", SyncNone}, {"20ms", SyncInterval}} {
		p, err := ParseSyncPolicy(tc.in)
		if err != nil || p.Mode != tc.mode {
			t.Fatalf("parse %q: %+v, %v", tc.in, p, err)
		}
	}

	// Interval mode: records are replayable and the background syncer
	// eventually fsyncs.
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := Open(path, SyncPolicy{Mode: SyncInterval, Interval: 5 * time.Millisecond}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(testOps(2)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for w.Syncs() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if w.Syncs() == 0 {
		t.Fatal("interval syncer never fired")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := replayAll(t, path, 0); len(got) != 1 {
		t.Fatalf("interval-mode log replayed %d records", len(got))
	}
}

func TestManifestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := LoadManifest(dir); ok || err != nil {
		t.Fatalf("empty dir manifest ok=%v err=%v", ok, err)
	}
	tp, lp, m, err := ResolveDataset(dir)
	if err != nil || m.Gen != 0 {
		t.Fatalf("resolve default: %v %+v", err, m)
	}
	if filepath.Base(tp) != "tuples.dat" || filepath.Base(lp) != "lists.dat" {
		t.Fatalf("default paths %s %s", tp, lp)
	}

	tn, ln := GenFileNames(3)
	want := Manifest{Gen: 3, Tuples: tn, Lists: ln, LastSeq: 17,
		Epoch: 2, Epochs: []EpochStart{{Epoch: 1, StartSeq: 5}, {Epoch: 2, StartSeq: 12}}}
	if err := want.Save(dir); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadManifest(dir)
	if err != nil || !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("load %+v ok=%v err=%v", got, ok, err)
	}

	// A stale temp file (crash mid-Save) must not shadow the manifest.
	if err := os.WriteFile(filepath.Join(dir, ManifestName+".tmp"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err = LoadManifest(dir)
	if err != nil || !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("load with stale tmp %+v ok=%v err=%v", got, ok, err)
	}

	// The epoch timeline maps sequence numbers to owning epochs.
	for _, tc := range []struct{ seq, epoch uint64 }{{0, 0}, {4, 0}, {5, 1}, {11, 1}, {12, 2}, {100, 2}} {
		if e := EpochAt(want.Epochs, tc.seq); e != tc.epoch {
			t.Fatalf("EpochAt(%d) = %d, want %d", tc.seq, e, tc.epoch)
		}
	}

	// A corrupt manifest is an error, not a silent default.
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadManifest(dir); err == nil {
		t.Fatal("corrupt manifest loaded")
	}
}

// TestAppendEncoded: a frame another log committed is appended byte for
// byte at the writer's next sequence; a frame that fails a check the
// recovery scan would also apply, or carries any other sequence, is
// refused and leaves the log exactly as it was.
func TestAppendEncoded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	w, _, err := Open(path, SyncPolicy{Mode: SyncBatch}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	frame := func(seq uint64) []byte {
		f, err := EncodeRecord(seq, testOps(3))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if err := w.AppendEncoded(frame(1)); err != nil {
		t.Fatal(err)
	}
	badCRC := frame(2)
	badCRC[len(badCRC)-1] ^= 0xff
	oversize := binary.LittleEndian.AppendUint32(nil, maxRecordBytes+1)
	oversize = append(oversize, frame(2)[4:]...)
	for _, tc := range []struct {
		name, want string
		frame      []byte
	}{
		{"bad crc", "crc mismatch", badCRC},
		{"sequence gap", "seq 3", frame(3)},
		{"duplicate sequence", "seq 1", frame(1)},
		{"payload over the record limit", "record limit", oversize},
		{"cut short", "length prefix", frame(2)[:len(frame(2))-3]},
		{"sequence zero", "sequence 0", frame(0)},
	} {
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendEncoded(tc.frame); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err %v, want one naming %q", tc.name, err, tc.want)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) || w.NextSeq() != 2 || w.Size() != int64(len(before)) {
			t.Fatalf("%s: refused frame changed the log (%d → %d bytes, next seq %d)", tc.name, len(before), len(after), w.NextSeq())
		}
	}
	if err := w.AppendEncoded(frame(2)); err != nil {
		t.Fatal(err)
	}
	var logged [][]byte
	if _, err := ReplayFrames(path, 0, func(_ uint64, f []byte) error {
		logged = append(logged, f)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(logged) != 2 || !bytes.Equal(logged[0], frame(1)) || !bytes.Equal(logged[1], frame(2)) {
		t.Fatalf("log holds %x, want the two appended frames", logged)
	}
}
