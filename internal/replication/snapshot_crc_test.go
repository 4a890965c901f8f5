package replication

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSnapshotFileRoundtrip: sendFile announces a whole-file CRC and
// receiveFile reproduces the bytes exactly, across the chunk boundary.
func TestSnapshotFileRoundtrip(t *testing.T) {
	payload := make([]byte, snapshotChunkBytes+snapshotChunkBytes/2)
	for i := range payload {
		payload[i] = byte(i*7 + i>>9)
	}
	src := filepath.Join(t.TempDir(), "src.dat")
	if err := os.WriteFile(src, payload, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	sendErr := make(chan error, 1)
	go func() {
		var p Primary
		sendErr <- p.sendFile(&session{conn: a}, "tuples.dat", f)
	}()

	kind, hdr, err := readMsg(b)
	if err != nil || kind != msgFileBegin {
		t.Fatalf("header: kind=%q err=%v", kind, err)
	}
	var fb fileBegin
	if err := json.Unmarshal(hdr, &fb); err != nil {
		t.Fatal(err)
	}
	if fb.Size != int64(len(payload)) || fb.Crc32 != crc32.ChecksumIEEE(payload) {
		t.Fatalf("header %+v, want size %d crc %08x", fb, len(payload), crc32.ChecksumIEEE(payload))
	}
	dir := t.TempDir()
	fl := &Follower{cfg: FollowerConfig{Dir: dir}}
	if err := fl.receiveFile(b, fb); err != nil {
		t.Fatalf("receive: %v", err)
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("send: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "tuples.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("received file differs from the source")
	}
}

// TestSnapshotTransferCorruptionDetected: a transfer whose bytes do not
// match the announced CRC — a mid-stream truncation refilled with other
// data, or plain corruption — is rejected by receiveFile, so the bad
// file never reaches the manifest save and engine swap.
func TestSnapshotTransferCorruptionDetected(t *testing.T) {
	payload := []byte("the quick brown fox jumps over the lazy dog")
	fb := fileBegin{Name: "lists.dat", Size: int64(len(payload)), Crc32: crc32.ChecksumIEEE(payload)}

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		bad := append([]byte(nil), payload...)
		bad[10] ^= 0xff // right size, wrong bytes
		writeMsg(a, msgFileChunk, bad)
	}()
	fl := &Follower{cfg: FollowerConfig{Dir: t.TempDir()}}
	err := fl.receiveFile(b, fb)
	if err == nil || !strings.Contains(err.Error(), "crc mismatch") {
		t.Fatalf("corrupted transfer err=%v, want crc mismatch", err)
	}

	// A truncated transfer (sender dies mid-file) errors too.
	a2, b2 := net.Pipe()
	defer b2.Close()
	go func() {
		writeMsg(a2, msgFileChunk, payload[:8])
		a2.Close()
	}()
	if err := fl.receiveFile(b2, fb); err == nil {
		t.Fatal("truncated transfer accepted")
	}

	// A header without a CRC is a CRC of 0 (the field is omitempty), not
	// a licence to check the size alone: bytes whose CRC is not 0 fail.
	a3, b3 := net.Pipe()
	defer a3.Close()
	defer b3.Close()
	go func() { writeMsg(a3, msgFileChunk, payload) }()
	err = fl.receiveFile(b3, fileBegin{Name: "lists.dat", Size: int64(len(payload))})
	if err == nil || !strings.Contains(err.Error(), "crc mismatch") {
		t.Fatalf("crc-less transfer err=%v, want crc mismatch", err)
	}
}
