package wal

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vec"
)

// FuzzDecodeRecord feeds arbitrary bytes through the frame decoder a
// replication standby trusts at the wire. Properties: never panic,
// never over-allocate on a corrupt count, and — because a standby logs
// what it accepts verbatim — every frame that decodes must go through
// AppendEncoded at its own sequence number and replay, through the
// recovery scan, to exactly the decoded ops.
func FuzzDecodeRecord(f *testing.F) {
	seedOps := [][]Op{
		nil,
		{{Kind: OpInsert, ID: 7, Tuple: vec.Sparse{{Dim: 0, Val: 0.5}, {Dim: 3, Val: 0.25}}}},
		{{Kind: OpDelete, ID: 42}},
		{
			{Kind: OpUpdate, ID: 1, Tuple: vec.Sparse{{Dim: 2, Val: 0.125}}},
			{Kind: OpInsert, ID: 2, Tuple: vec.Sparse{{Dim: 1, Val: 1}}},
		},
	}
	for i, ops := range seedOps {
		frame, err := EncodeRecord(uint64(i+1), ops)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		// A corrupted variant of each seed, so the mutator starts from
		// near-valid frames on both sides of the CRC check.
		bad := bytes.Clone(frame)
		bad[len(bad)-1] ^= 0xff
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		seq, ops, err := DecodeRecord(frame)
		if err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "wal.log")
		w, _, err := Open(path, SyncPolicy{Mode: SyncNone}, seq-1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendEncoded(frame); err != nil {
			t.Fatalf("decoded frame refused at its own seq %d: %v", seq, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var replayed [][]Op
		if _, err := Replay(path, 0, func(got uint64, ops []Op) error {
			if got != seq {
				t.Fatalf("replayed seq %d, appended %d", got, seq)
			}
			replayed = append(replayed, ops)
			return nil
		}); err != nil {
			t.Fatalf("recovery refused a frame the standby accepted: %v", err)
		}
		if len(replayed) != 1 || !sameOps(replayed[0], ops) {
			t.Fatalf("replay gave %+v, decode gave %+v", replayed, ops)
		}
	})
}

// sameOps compares op batches with values by their bits, so a NaN the
// fuzzer wrote compares equal to itself.
func sameOps(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].ID != b[i].ID || len(a[i].Tuple) != len(b[i].Tuple) {
			return false
		}
		for j, e := range a[i].Tuple {
			f := b[i].Tuple[j]
			if e.Dim != f.Dim || math.Float64bits(e.Val) != math.Float64bits(f.Val) {
				return false
			}
		}
	}
	return true
}

// FuzzReplay writes arbitrary bytes as a wal.log and runs the
// recovery-path scanner over it. Crash recovery must never panic on
// any log state a torn write could leave behind; a corrupt or torn
// tail is reported through ReplayResult/error, not a crash. Inspect
// shares the scanner and must agree with Replay on the record count.
func FuzzReplay(f *testing.F) {
	valid, err := EncodeRecord(1, []Op{{Kind: OpInsert, ID: 3, Tuple: vec.Sparse{{Dim: 0, Val: 0.75}}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(append(bytes.Clone(valid), valid[:len(valid)-5]...)) // torn second record
	f.Add(append(bytes.Clone(valid), make([]byte, 64)...))     // zero tail
	f.Fuzz(func(t *testing.T, log []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		records := 0
		res, err := Replay(path, 0, func(seq uint64, ops []Op) error {
			records++
			return nil
		})
		if err != nil {
			return
		}
		if res.Records != records {
			t.Fatalf("ReplayResult.Records=%d but apply ran %d times", res.Records, records)
		}
		info, err := Inspect(path)
		if err != nil {
			t.Fatalf("Replay accepted the log but Inspect rejected it: %v", err)
		}
		if info.Records != records {
			t.Fatalf("Inspect.Records=%d, Replay saw %d", info.Records, records)
		}
	})
}
