// Package replication ships the write-ahead log of a durable engine
// (internal/wal) to warm read-only standbys over TCP, so a node loss
// does not lose acknowledged batches and followers can serve read
// traffic from their replayed overlays.
//
// # Model
//
// One primary (the directory's exclusive WAL writer) accepts follower
// connections on a listen address. Each follower maintains its own data
// directory — a full durable engine of its own — and replays the
// primary's frames through the identical Engine.ApplyReplicated path
// live Apply uses, including region-certified cache invalidation, so a
// standby that has applied sequence number S serves answers
// bit-identical to the primary at S (its log holds the primary's bytes
// and the mutation code is deterministic; see docs/replication.md for
// the full argument and the property tests that pin it).
//
// # Invariants
//
//   - Frames are shipped verbatim (the exact bytes appended to the
//     primary's log) in strictly increasing, gap-free sequence order;
//     the follower verifies each frame's CRC and sequence and appends
//     the same bytes to its own log.
//   - A follower ack for sequence S means the follower has fsynced its
//     log through S (followers always run fsync-per-batch), so in
//     quorum ack mode a successful Apply implies the batch is on stable
//     storage on at least max(1, ⌈n/2⌉) followers.
//   - The primary retains, in memory, every frame not yet folded into
//     its checkpointed dataset files (bounded by the engine's
//     checkpoint threshold). A follower whose resume point predates
//     that history — a checkpoint cut the primary's log past the
//     follower's sequence — is re-seeded with a full snapshot
//     transfer of the current generation files.
//   - Checkpoint manifests are forwarded in stream order; a follower
//     folds its own overlay (a local checkpoint) when it receives one,
//     keeping standby log growth in lockstep with the primary's.
//
// # Lock ordering
//
// engine.Engine.mu is always acquired before Primary.mu (the engine
// calls the sink under its write lock); Primary.mu is never held
// across a call into the engine or across network I/O. The follower
// holds no lock while calling into its engine.
//
// The wire protocol lives in this file; primary.go is the shipper,
// follower.go the standby loop. docs/replication.md is the normative
// spec.
package replication

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/wal"
)

// ProtoVersion is the handshake protocol version. A primary refuses
// hellos carrying any other value, and a follower a welcome.
const ProtoVersion = 2

// DatasetIDName is the file naming a dataset's replication identity
// inside its data directory. The primary mints it on first use; a
// snapshot transfer copies it to the follower, and every reconnect
// handshake cross-checks it so a follower can never replay frames of a
// different dataset onto its state.
const DatasetIDName = "DATASET_ID"

// Network is how a member reaches the others: the replication
// listener, the replication dial and the transport of the /cluster
// probes. NodeConfig and FollowerConfig take one; nil is TCP and
// http.DefaultTransport. Tests substitute an in-memory network to run a
// cluster in virtual time (docs/replication.md, "Failover in virtual
// time").
type Network interface {
	Listen(address string) (net.Listener, error)
	Dial(ctx context.Context, address string) (net.Conn, error)
	Transport() http.RoundTripper
}

// tcpNetwork is the Network a nil field stands for.
type tcpNetwork struct{}

func (tcpNetwork) Listen(address string) (net.Listener, error) { return net.Listen("tcp", address) }

func (tcpNetwork) Dial(ctx context.Context, address string) (net.Conn, error) {
	var d net.Dialer
	return d.DialContext(ctx, "tcp", address)
}

func (tcpNetwork) Transport() http.RoundTripper { return http.DefaultTransport }

// Message kinds. Every message on the wire is `kind byte | len uint32
// LE | payload`; see docs/replication.md for the per-kind payloads.
const (
	// follower → primary
	msgHello byte = 'h' // JSON hello
	msgAck   byte = 'a' // 8-byte LE sequence number fsynced through

	// primary → follower
	msgWelcome   byte = 'w' // JSON welcome
	msgFileBegin byte = 'f' // JSON {name, size}: a snapshot file follows
	msgFileChunk byte = 'd' // raw bytes of the current snapshot file
	msgManifest  byte = 'm' // JSON wal.Manifest: snapshot base / checkpoint event
	msgRecord    byte = 'r' // one verbatim WAL frame
	msgTail      byte = 't' // JSON heartbeat {tail_seq, unix_nanos}
	msgError     byte = 'e' // UTF-8 error text, then close
	msgDeposed   byte = 'x' // JSON deposed: this primary was fenced; reconnect elsewhere
)

// maxMessageBytes bounds one message's payload: the WAL's own record
// limit plus its frame header. Anything larger is a protocol violation.
const maxMessageBytes = 1<<30 + 64

// maxControlBytes bounds small control messages (hello, welcome, acks,
// manifests, heartbeats). The primary applies it to everything an
// unauthenticated peer can send — the payload length in the frame
// header is attacker-controlled, and readMsg allocates it up front, so
// pre-validation reads must never honor a gigabyte-sized claim.
const maxControlBytes = 64 << 10

// snapshotChunkBytes is the file-transfer chunk size.
const snapshotChunkBytes = 1 << 20

// hello is the follower's handshake: who it is and where to resume.
type hello struct {
	Proto     int    `json:"proto"`
	DatasetID string `json:"dataset_id"` // "" on a fresh (empty-dir) follower
	LastSeq   uint64 `json:"last_seq"`   // highest sequence committed to the follower's log
	// Epoch is the follower's current fencing epoch; a primary seeing a
	// HIGHER epoch than its own knows it has been deposed and fences
	// itself. LastEpoch is the epoch owning the follower's last frame
	// per its own timeline; the primary cross-checks it against its
	// timeline at LastSeq to detect a divergent branch (same sequence
	// numbers, different history).
	Epoch     uint64 `json:"epoch,omitempty"`
	LastEpoch uint64 `json:"last_epoch,omitempty"`
}

// Stream modes announced in the welcome.
const (
	ModeStream   = "stream"   // frames from LastSeq+1 follow directly
	ModeSnapshot = "snapshot" // full generation files + base manifest first
)

// welcome is the primary's handshake response.
type welcome struct {
	Proto     int    `json:"proto"`
	DatasetID string `json:"dataset_id"`
	Mode      string `json:"mode"` // ModeStream or ModeSnapshot
	// HTTPAddr is the primary's advertised HTTP listen address (its
	// -addr flag); followers combine it with the replication host to
	// build the write-redirect URL.
	HTTPAddr string `json:"http_addr,omitempty"`
	TailSeq  uint64 `json:"tail_seq"`
	// Epoch and Epochs carry the primary's fencing epoch and promotion
	// timeline; the follower adopts and persists them (they are
	// authoritative for the history it mirrors) and refuses a primary
	// whose epoch is below its own — that primary is deposed and has
	// not noticed yet.
	Epoch  uint64           `json:"epoch,omitempty"`
	Epochs []wal.EpochStart `json:"epochs,omitempty"`
}

// deposed is the fenced primary's goodbye: it learned of a newer epoch
// and is shutting its sessions down. Epoch is the fencing epoch it
// observed; HTTPAddr, when known, is the successor primary's advertised
// HTTP address so followers (and their coordinators) can re-point
// without a discovery round.
type deposed struct {
	Epoch    uint64 `json:"epoch"`
	HTTPAddr string `json:"http_addr,omitempty"`
}

// fileBegin announces one snapshot file. The file's own IRCRC001
// trailer is what the receiver checks it by.
type fileBegin struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// tail is the primary's heartbeat, letting followers measure lag even
// when no writes are flowing.
type tail struct {
	TailSeq   uint64 `json:"tail_seq"`
	UnixNanos int64  `json:"unix_nanos"`
}

// writeMsg frames and writes one message. Callers serialize access to
// w themselves (the primary's per-session write mutex; the follower is
// single-writer by construction).
func writeMsg(w io.Writer, kind byte, payload []byte) error {
	hdr := make([]byte, 5)
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// readMsg reads one framed message, allowing data-plane payloads up to
// the WAL record limit. Use readControlMsg on any connection whose
// peer is not yet expected to send bulk data.
func readMsg(r io.Reader) (kind byte, payload []byte, err error) {
	return readMsgLimit(r, maxMessageBytes)
}

// readControlMsg reads one framed message under the small control-
// message bound — the primary's read path (hellos and acks only), so a
// hostile dialer cannot make it allocate a gigabyte from a forged
// length header.
func readControlMsg(r io.Reader) (kind byte, payload []byte, err error) {
	return readMsgLimit(r, maxControlBytes)
}

func readMsgLimit(r io.Reader, limit uint32) (kind byte, payload []byte, err error) {
	hdr := make([]byte, 5)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:5])
	if n > limit {
		return 0, nil, fmt.Errorf("replication: message of %d bytes exceeds the %d-byte limit", n, limit)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// EnsureDatasetID returns dir's replication identity, minting and
// durably persisting a fresh one (16 random bytes, hex) if the
// directory has none yet.
func EnsureDatasetID(dir string) (string, error) {
	if id, err := ReadDatasetID(dir); err != nil || id != "" {
		return id, err
	}
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "", err
	}
	id := hex.EncodeToString(buf[:])
	if err := writeDatasetID(dir, id); err != nil {
		return "", err
	}
	return id, nil
}

// ReadDatasetID reads dir's replication identity; "" when the
// directory has none (a fresh follower).
func ReadDatasetID(dir string) (string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, DatasetIDName))
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	return string(trimSpace(raw)), nil
}

// writeDatasetID persists the identity durably (write + fsync + dir
// fsync): losing it after a snapshot would make the next handshake look
// like a fresh follower and force a needless re-transfer.
func writeDatasetID(dir, id string) error {
	path := filepath.Join(dir, DatasetIDName)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(id + "\n"); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return wal.SyncDir(dir)
}

func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[len(b)-1] == '\n' || b[len(b)-1] == '\r' || b[len(b)-1] == ' ') {
		b = b[:len(b)-1]
	}
	return b
}
