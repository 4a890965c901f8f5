package replication

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// withTrailer returns data followed by the IRCRC001 integrity trailer
// every dataset file ends in: magic, crc32-IEEE of data, 4 bytes pad.
func withTrailer(data []byte) []byte {
	out := append(bytes.Clone(data), "IRCRC001"...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(data))
	return append(out, 0, 0, 0, 0)
}

// TestSnapshotFileRoundtrip: sendFile announces the file's size and
// receiveFile reproduces the bytes exactly, across the chunk boundary,
// and accepts them by their own trailer.
func TestSnapshotFileRoundtrip(t *testing.T) {
	data := make([]byte, snapshotChunkBytes+snapshotChunkBytes/2)
	for i := range data {
		data[i] = byte(i*7 + i>>9)
	}
	payload := withTrailer(data)
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
	if fb.Name != "tuples.dat" || fb.Size != int64(len(payload)) {
		t.Fatalf("header %+v, want tuples.dat of %d bytes", fb, len(payload))
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
// match the file's own trailer — a mid-stream truncation refilled with
// other data, or plain corruption — is rejected by receiveFile, so the
// bad file never reaches the manifest save and engine swap.
func TestSnapshotTransferCorruptionDetected(t *testing.T) {
	payload := withTrailer([]byte("the quick brown fox jumps over the lazy dog"))
	fb := fileBegin{Name: "lists.dat", Size: int64(len(payload))}

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		bad := bytes.Clone(payload)
		bad[10] ^= 0xff // right size, wrong bytes
		writeMsg(a, msgFileChunk, bad)
	}()
	fl := &Follower{cfg: FollowerConfig{Dir: t.TempDir()}}
	err := fl.receiveFile(b, fb)
	if err == nil || !strings.Contains(err.Error(), "crc") {
		t.Fatalf("corrupted transfer err=%v, want a crc mismatch", err)
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
}
