// Package wal is the durability subsystem: an append-only write-ahead
// log for mutation batches plus the manifest that makes checkpoint
// compaction an atomic swap. The paper treats the dataset as static;
// the engine's write path (PR 3) made it mutable through a
// memory-resident overlay — this package is what lets those writes
// survive a process crash.
//
// # Log format
//
// The log file starts with an 8-byte magic and is followed by
// length-prefixed, CRC-framed records, one per Apply batch:
//
//	magic "IRWAL001" (8)
//	frame: payloadLen uint32 | crc32c(payload) uint32 | payload
//	payload: seq uint64 | nops uint32 | ops
//	op: kind uint8 | id uint64 | nnz uint32 | nnz × (dim uint32, val float64)
//
// Sequence numbers are per-record (one per batch), start at 1 and
// increase by exactly 1; the checkpoint manifest records the last
// sequence folded into the tuple/list files, so replay after a crash
// between manifest rename and log truncation skips already-checkpointed
// records instead of double-applying them.
//
// # Crash tolerance
//
// A torn final record — the frame a crash interrupted — is repaired by
// truncating the log at the first bad frame, provided that frame
// extends to end-of-file (there is nothing after it). A bad frame with
// more log after it is mid-log corruption: the log is refused with
// ErrCorrupt rather than silently dropping committed batches.
//
// # Sync policies
//
// Every Append writes the record through to the operating system, so a
// process crash (kill -9) loses nothing under any policy; the policy
// chooses when fsync pushes records to stable storage, i.e. what a
// power loss can take:
//
//   - SyncBatch (default): fsync on every Append — at most the batch
//     being written is lost.
//   - SyncInterval: a background goroutine fsyncs every Interval.
//   - SyncNone: fsync only on Close and CutBefore.
//
// # Replication
//
// Frames double as the replication wire format. A primary ships the
// bytes AppendFrame committed, and ReplayFrames hands on an existing
// log's frames as they were read. A standby checks each received frame
// with DecodeRecord and appends it verbatim with AppendEncoded, so its
// log holds the primary's bytes (internal/replication builds on this).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vec"
)

// ErrCorrupt tags mid-log corruption: a bad frame that cannot be a torn
// tail because committed records follow it.
var ErrCorrupt = errors.New("wal: log corrupt")

var logMagic = [8]byte{'I', 'R', 'W', 'A', 'L', '0', '0', '1'}

// castagnoli is the CRC32C table (the usual storage-system polynomial,
// distinct from the IEEE CRC the dataset file trailers use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const (
	headerSize = 8
	frameSize  = 8 // payloadLen + crc
	// maxRecordBytes bounds a single record's payload; anything larger in
	// a length prefix is corruption, not a real batch.
	maxRecordBytes = 1 << 30
	// tempSuffix names the file CutBefore builds next to the log; one a
	// crash left behind is removed by Open.
	tempSuffix = ".tmp"
)

// OpKind selects a logged mutation. The values are the on-disk
// encoding; zero is deliberately invalid so a zeroed frame cannot
// decode as an op.
type OpKind uint8

const (
	OpInsert OpKind = 1
	OpUpdate OpKind = 2
	OpDelete OpKind = 3
)

// Op is one logged mutation: the engine's Op in durable form.
type Op struct {
	Kind  OpKind
	ID    int64      // Update/Delete target; ignored for Insert
	Tuple vec.Sparse // Insert/Update payload
}

// SyncMode selects when Append data is fsynced (see the package
// comment).
type SyncMode int

const (
	SyncBatch SyncMode = iota
	SyncInterval
	SyncNone
)

func (m SyncMode) String() string {
	switch m {
	case SyncBatch:
		return "batch"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("sync(%d)", int(m))
	}
}

// SyncPolicy is a mode plus its interval (SyncInterval only).
type SyncPolicy struct {
	Mode     SyncMode
	Interval time.Duration
}

func (p SyncPolicy) String() string {
	if p.Mode == SyncInterval {
		return p.Interval.String()
	}
	return p.Mode.String()
}

// ParseSyncPolicy maps a flag value to a policy: "batch" (fsync per
// Append), "none" (fsync only on close), or a duration like "250ms"
// (background fsync at that interval).
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "batch", "always":
		return SyncPolicy{Mode: SyncBatch}, nil
	case "none":
		return SyncPolicy{Mode: SyncNone}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return SyncPolicy{}, fmt.Errorf("wal: sync policy %q is not batch, none or a duration", s)
	}
	if d <= 0 {
		return SyncPolicy{}, fmt.Errorf("wal: sync interval %v must be positive", d)
	}
	return SyncPolicy{Mode: SyncInterval, Interval: d}, nil
}

// ReplayResult summarizes what Open recovered from an existing log.
type ReplayResult struct {
	// Records and Ops count the replayed (applied) records/ops, i.e.
	// those with seq > the caller's from.
	Records int
	Ops     int
	// SkippedRecords counts records at or below from (already folded
	// into a checkpoint).
	SkippedRecords int
	// LastSeq is the highest sequence number present in the log (0 for
	// an empty log).
	LastSeq uint64
	// TruncatedBytes is how much torn tail was cut off, 0 for a clean
	// log.
	TruncatedBytes int64
}

// Writer is the append side of the log. It is safe for concurrent use,
// though the engine serializes Appends under its write lock anyway.
type Writer struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	policy  SyncPolicy
	nextSeq uint64
	size    int64

	appends atomic.Int64
	syncs   atomic.Int64

	// interval syncer state
	dirty   atomic.Bool
	stop    chan struct{}
	done    chan struct{}
	syncErr atomic.Value // error from the background syncer

	closed bool
	// failed poisons the writer when a failed append could not be
	// rolled back: the log's tail state is unknown, so accepting more
	// records could bury a torn frame under valid ones — which recovery
	// would rightly refuse as mid-log corruption.
	failed error
}

// Open opens (creating if absent) the log at path, replays every record
// with seq > from through apply in order, repairs a torn tail, and
// returns a Writer positioned to append the next record. apply may be
// nil to skip replay work while still scanning and repairing.
func Open(path string, policy SyncPolicy, from uint64, apply func(seq uint64, ops []Op) error) (*Writer, ReplayResult, error) {
	// A cut the crash interrupted before its rename: the log is whole.
	if err := os.Remove(path + tempSuffix); err != nil && !os.IsNotExist(err) {
		return nil, ReplayResult{}, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, ReplayResult{}, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, ReplayResult{}, err
	}
	var res ReplayResult
	size := st.Size()
	if size == 0 {
		if _, err := f.Write(logMagic[:]); err != nil {
			f.Close()
			return nil, ReplayResult{}, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, ReplayResult{}, err
		}
		// The directory entry must be durable too: without this, a
		// power loss could drop the whole (fsynced) log file, losing
		// every acknowledged batch at once.
		if err := SyncDir(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, ReplayResult{}, err
		}
		size = headerSize
	} else {
		end, err := scanFrames(f, size, replayer(&res, from, apply))
		if err != nil {
			f.Close()
			return nil, ReplayResult{}, err
		}
		if end < size {
			res.TruncatedBytes = size - end
			if err := f.Truncate(end); err != nil {
				f.Close()
				return nil, ReplayResult{}, err
			}
			size = end
			if size < headerSize {
				// The crash interrupted file creation itself: start over.
				if _, err := f.WriteAt(logMagic[:], 0); err != nil {
					f.Close()
					return nil, ReplayResult{}, err
				}
				size = headerSize
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, ReplayResult{}, err
			}
		}
	}
	next := res.LastSeq + 1
	if from+1 > next {
		next = from + 1
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, ReplayResult{}, err
	}
	w := &Writer{f: f, path: path, policy: policy, nextSeq: next, size: size}
	if policy.Mode == SyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.syncLoop()
	}
	return w, res, nil
}

func (w *Writer) syncLoop() {
	defer close(w.done)
	t := time.NewTicker(w.policy.Interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			if w.dirty.Swap(false) {
				// The fsync runs without w.mu, so appends never wait on
				// it. A cut that closed f meanwhile fsynced its new file
				// whole.
				w.mu.Lock()
				f := w.f
				w.mu.Unlock()
				if err := f.Sync(); err == nil {
					w.syncs.Add(1)
				} else if !errors.Is(err, os.ErrClosed) {
					w.syncErr.Store(err)
					return
				}
			}
		}
	}
}

// Append logs one batch and returns its sequence number. Under
// SyncBatch the record is on stable storage when Append returns. A
// failed append is rolled back (the log is truncated to the last
// committed record), so an error here means the batch is NOT in the
// log and will not resurface on replay; if the rollback itself fails
// the writer refuses all further appends.
func (w *Writer) Append(ops []Op) (uint64, error) {
	seq, _, err := w.AppendFrame(ops)
	return seq, err
}

// AppendFrame is Append, additionally returning the exact frame bytes
// committed to the log — the replication primary ships these verbatim,
// so the record is serialized exactly once. The returned slice is
// owned by the caller.
func (w *Writer) AppendFrame(ops []Op) (uint64, []byte, error) {
	if len(ops) == 0 {
		return 0, nil, fmt.Errorf("wal: empty op batch")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	seq := w.nextSeq
	frame, err := encodeRecord(seq, ops)
	if err != nil {
		return 0, nil, err
	}
	if len(frame)-frameSize > maxRecordBytes {
		// Never let a record the recovery scan would classify as
		// corruption (and truncate away) become an acknowledged write.
		return 0, nil, fmt.Errorf("wal: batch encodes to %d bytes, above the %d-byte record limit — split it", len(frame)-frameSize, maxRecordBytes)
	}
	if err := w.appendLocked(frame); err != nil {
		return 0, nil, err
	}
	return seq, frame, nil
}

// AppendEncoded appends a frame another log committed, verbatim — the
// replication standby's append, so its log holds the primary's bytes.
// The frame must pass the checks recovery applies (length prefix,
// record limit, CRC) and carry the writer's next sequence number;
// anything else is refused and leaves the log as it was. Commit,
// fsync and rollback are Append's.
func (w *Writer) AppendEncoded(frame []byte) error {
	seq, err := checkFrame(frame)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq != w.nextSeq {
		return fmt.Errorf("wal: frame carries seq %d, the log's next is %d", seq, w.nextSeq)
	}
	return w.appendLocked(frame)
}

// appendLocked commits one encoded frame carrying w.nextSeq: write,
// fsync under SyncBatch, and roll back on failure. w.mu must be held.
func (w *Writer) appendLocked(frame []byte) error {
	if w.failed != nil {
		return w.failed
	}
	if err, _ := w.syncErr.Load().(error); err != nil {
		return fmt.Errorf("wal: background sync failed: %w", err)
	}
	if _, err := w.f.Write(frame); err != nil {
		return w.rollback(err)
	}
	if w.policy.Mode == SyncBatch {
		// The fsync is part of the commit: a record whose durability the
		// caller was told failed must not replay on restart.
		if err := w.f.Sync(); err != nil {
			return w.rollback(err)
		}
		w.syncs.Add(1)
	}
	w.size += int64(len(frame))
	w.nextSeq++
	w.appends.Add(1)
	if w.policy.Mode == SyncInterval {
		w.dirty.Store(true)
	}
	return nil
}

// rollback restores the log to its last committed length after a failed
// append, so the rejected batch cannot resurface on replay and a torn
// frame cannot be buried under later records. If the restore fails the
// writer is poisoned. Returns the error to hand the caller.
func (w *Writer) rollback(cause error) error {
	if err := w.f.Truncate(w.size); err != nil {
		w.failed = fmt.Errorf("wal: append failed (%v) and rollback failed (%v): log tail state unknown, writer disabled", cause, err)
		return w.failed
	}
	if _, err := w.f.Seek(w.size, io.SeekStart); err != nil {
		w.failed = fmt.Errorf("wal: append failed (%v) and re-seek failed (%v): writer disabled", cause, err)
		return w.failed
	}
	return cause
}

// CutBefore replaces the log with one that holds only its frames from
// byte offset off on, verbatim: the records a checkpoint did not fold.
// off must be a frame boundary, such as a Size the caller read. The
// kept frames go to a temporary file, which is fsynced and renamed over
// the log before the directory is fsynced, so a crash leaves either the
// whole old log or the cut one. The sequence counter and the counters
// carry on. A failure before the rename leaves the log as it was; after
// it, appends go to the new file even if the directory fsync fails.
func (w *Writer) CutBefore(off int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if off < headerSize || off > w.size {
		return fmt.Errorf("wal: cut at %d outside the log's frames [%d, %d]", off, headerSize, w.size)
	}
	tmp := w.path + tempSuffix
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(logMagic[:])
	if err == nil {
		_, err = io.Copy(f, io.NewSectionReader(w.f, off, w.size-off))
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, w.path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	w.syncs.Add(1)
	w.f.Close() // an interval fsync running on it finishes first
	w.f, w.size = f, headerSize+w.size-off
	return SyncDir(filepath.Dir(w.path))
}

// Close stops the background syncer (if any), fsyncs and closes the
// log. Closing an already-closed writer is a no-op.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	if w.stop != nil {
		close(w.stop)
		<-w.done
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// Size returns the current log length in bytes (header included).
func (w *Writer) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// NextSeq returns the sequence number the next Append will use.
func (w *Writer) NextSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq
}

// LastSeq returns the sequence number of the most recent Append (0 when
// nothing has ever been appended).
func (w *Writer) LastSeq() uint64 { return w.NextSeq() - 1 }

// Appends returns how many records this writer has appended.
func (w *Writer) Appends() int64 { return w.appends.Load() }

// Syncs returns how many fsyncs this writer has issued.
func (w *Writer) Syncs() int64 { return w.syncs.Load() }

// Policy returns the writer's sync policy.
func (w *Writer) Policy() SyncPolicy { return w.policy }

// Replay scans the log read-only, applying every record with seq >
// from, tolerating a torn tail without repairing it (no write happens —
// the path read-only openers use). A missing log replays as empty.
func Replay(path string, from uint64, apply func(seq uint64, ops []Op) error) (ReplayResult, error) {
	var res ReplayResult
	size, end, err := scanFile(path, replayer(&res, from, apply))
	if err != nil {
		return ReplayResult{}, err
	}
	res.TruncatedBytes = size - end
	return res, nil
}

// ReplayFrames scans the log read-only like Replay, but hands the
// caller each record's frame (length prefix + CRC + payload) as it was
// read instead of its decoded ops — the form the replication primary
// ships over the wire. Records with seq <= from are skipped; a torn
// tail is tolerated without repair; a missing log replays as empty.
// The frame slice is freshly allocated per record and may be retained.
func ReplayFrames(path string, from uint64, fn func(seq uint64, frame []byte) error) (ReplayResult, error) {
	var res ReplayResult
	size, end, err := scanFile(path, func(off int64, seq uint64, frame []byte) error {
		res.LastSeq = seq
		if seq <= from {
			res.SkippedRecords++
			return nil
		}
		res.Records++
		return fn(seq, frame)
	})
	if err != nil {
		return ReplayResult{}, err
	}
	res.TruncatedBytes = size - end
	return res, nil
}

// Info describes a log file without replaying it; tests use the record
// offsets to cut the log at precise byte boundaries.
type Info struct {
	Records int
	LastSeq uint64
	Size    int64
	// Offsets[i] is the byte offset of record i's frame.
	Offsets []int64
}

// Inspect scans the log read-only. A torn tail is reported via Size vs
// the last offset (no repair is performed); mid-log corruption is an
// error. A missing log inspects as empty.
func Inspect(path string) (Info, error) {
	var info Info
	size, _, err := scanFile(path, func(off int64, seq uint64, frame []byte) error {
		info.Records++
		info.LastSeq = seq
		info.Offsets = append(info.Offsets, off)
		return nil
	})
	if err != nil {
		return Info{}, err
	}
	info.Size = size
	return info, nil
}

// scanFile is the read-only prelude of Replay, ReplayFrames and
// Inspect: it scans the log at path with fn and returns the file's size
// and the offset of its first torn frame. A missing log is empty.
func scanFile(path string, fn func(off int64, seq uint64, frame []byte) error) (size, end int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	end, err = scanFrames(f, st.Size(), fn)
	return st.Size(), end, err
}

// replayer is the scanner callback of Open and Replay: it decodes every
// record with seq > from and hands its ops to apply (which may be
// nil), counting into res.
func replayer(res *ReplayResult, from uint64, apply func(seq uint64, ops []Op) error) func(off int64, seq uint64, frame []byte) error {
	return func(off int64, seq uint64, frame []byte) error {
		res.LastSeq = seq
		if seq <= from {
			res.SkippedRecords++
			return nil
		}
		ops, err := decodeOps(frame[frameSize:])
		if err != nil {
			return fmt.Errorf("%w: record at %d (seq %d): %v", ErrCorrupt, off, seq, err)
		}
		res.Records++
		res.Ops += len(ops)
		if apply != nil {
			return apply(seq, ops)
		}
		return nil
	}
}

// scanFrames iterates the log's frames, calling fn with each record's
// offset, sequence number and whole frame as read (a fresh slice per
// record). It returns the offset of the first torn frame (== size for
// a clean log); a bad frame that is not the file's tail is ErrCorrupt.
func scanFrames(f *os.File, size int64, fn func(off int64, seq uint64, frame []byte) error) (int64, error) {
	if size < headerSize {
		// Shorter than the magic: a crash during creation. Treat the
		// whole file as torn.
		return 0, nil
	}
	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return 0, err
	}
	if string(hdr) != string(logMagic[:]) {
		return 0, fmt.Errorf("%w: bad magic (not a WAL file)", ErrCorrupt)
	}
	off := int64(headerSize)
	var prevSeq uint64
	head := make([]byte, frameSize)
	for off < size {
		if size-off < frameSize {
			return off, nil // torn frame header
		}
		if _, err := f.ReadAt(head, off); err != nil {
			return 0, err
		}
		plen := int64(binary.LittleEndian.Uint32(head[0:4]))
		wantCRC := binary.LittleEndian.Uint32(head[4:8])
		if off+frameSize+plen > size {
			// The frame claims more bytes than the file holds: the tail
			// the crash interrupted.
			return off, nil
		}
		if plen > maxRecordBytes {
			// Append refuses records this large, so an in-file frame
			// claiming one is corruption — unless the "frame" is the
			// zero-filled tail some filesystems leave after a crash
			// extended the file without writing our data.
			if zeroTail(f, off, size) {
				return off, nil
			}
			return 0, fmt.Errorf("%w: frame at %d claims %d bytes (limit %d)", ErrCorrupt, off, plen, maxRecordBytes)
		}
		frame := make([]byte, frameSize+plen)
		copy(frame, head)
		if _, err := f.ReadAt(frame[frameSize:], off+frameSize); err != nil {
			return 0, err
		}
		payload := frame[frameSize:]
		if crc32.Checksum(payload, castagnoli) != wantCRC {
			if off+frameSize+plen == size {
				return off, nil // corrupt final frame: torn write
			}
			if zeroTail(f, off, size) {
				return off, nil // zero-filled tail, not buried corruption
			}
			return 0, fmt.Errorf("%w: crc mismatch at offset %d with %d committed bytes after it",
				ErrCorrupt, off, size-(off+frameSize+plen))
		}
		if plen < 12 {
			// No real record is this small (seq + op count alone are 12
			// bytes). A zeroed frame header forges a passing CRC (plen=0,
			// crc=0, crc32c("")=0), so this is the zero-fill signature —
			// repair it as a torn tail; anything else is corruption.
			if zeroTail(f, off, size) {
				return off, nil
			}
			return 0, fmt.Errorf("%w: record at %d too short (%d bytes)", ErrCorrupt, off, plen)
		}
		seq := binary.LittleEndian.Uint64(payload[0:8])
		if prevSeq != 0 && seq != prevSeq+1 {
			return 0, fmt.Errorf("%w: sequence jump %d → %d at offset %d", ErrCorrupt, prevSeq, seq, off)
		}
		if err := fn(off, seq, frame); err != nil {
			return 0, err
		}
		prevSeq = seq
		off += frameSize + plen
	}
	return off, nil
}

// zeroTail reports whether every byte from off to size is zero — the
// signature of a filesystem that extended the file (metadata) without
// persisting our data blocks before a power loss. Such a tail holds no
// committed record and is safe to truncate away.
func zeroTail(f *os.File, off, size int64) bool {
	buf := make([]byte, 64<<10)
	for off < size {
		n := size - off
		if n > int64(len(buf)) {
			n = int64(len(buf))
		}
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return false
		}
		for _, b := range buf[:n] {
			if b != 0 {
				return false
			}
		}
		off += n
	}
	return true
}

// EncodeRecord builds the full on-disk frame (length prefix + CRC +
// payload) for one batch, exactly as Append would log it at seq.
func EncodeRecord(seq uint64, ops []Op) ([]byte, error) {
	return encodeRecord(seq, ops)
}

// DecodeRecord parses one full frame as produced by EncodeRecord (and
// as stored in the log): it validates the frame as AppendEncoded does,
// then decodes the sequence number and ops. A standby runs every
// received frame through this before applying it, so a corrupted or
// truncated frame is rejected at the wire instead of poisoning its log.
func DecodeRecord(frame []byte) (seq uint64, ops []Op, err error) {
	if seq, err = checkFrame(frame); err != nil {
		return 0, nil, err
	}
	if ops, err = decodeOps(frame[frameSize:]); err != nil {
		return 0, nil, err
	}
	return seq, ops, nil
}

// checkFrame validates one whole frame's length prefix, record limit
// and CRC, and returns its sequence number.
func checkFrame(frame []byte) (uint64, error) {
	if len(frame) < frameSize+12 {
		return 0, fmt.Errorf("wal: frame too short (%d bytes)", len(frame))
	}
	plen := int(binary.LittleEndian.Uint32(frame[0:4]))
	if plen > maxRecordBytes {
		return 0, fmt.Errorf("wal: frame claims %d payload bytes, above the %d-byte record limit", plen, maxRecordBytes)
	}
	if plen != len(frame)-frameSize {
		return 0, fmt.Errorf("wal: frame length prefix %d does not match %d payload bytes", plen, len(frame)-frameSize)
	}
	if crc32.Checksum(frame[frameSize:], castagnoli) != binary.LittleEndian.Uint32(frame[4:8]) {
		return 0, fmt.Errorf("wal: frame crc mismatch")
	}
	seq := binary.LittleEndian.Uint64(frame[frameSize:])
	if seq == 0 {
		return 0, fmt.Errorf("wal: frame carries sequence 0 (sequences start at 1)")
	}
	return seq, nil
}

// encodeRecord builds the full frame (header + payload) for one batch.
func encodeRecord(seq uint64, ops []Op) ([]byte, error) {
	payload := make([]byte, 0, 12+len(ops)*16)
	payload = binary.LittleEndian.AppendUint64(payload, seq)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(ops)))
	for i, op := range ops {
		switch op.Kind {
		case OpInsert, OpUpdate, OpDelete:
		default:
			return nil, fmt.Errorf("wal: op %d has unknown kind %d", i, op.Kind)
		}
		payload = append(payload, byte(op.Kind))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(op.ID))
		payload = binary.LittleEndian.AppendUint32(payload, uint32(len(op.Tuple)))
		for _, e := range op.Tuple {
			payload = binary.LittleEndian.AppendUint32(payload, uint32(e.Dim))
			payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(e.Val))
		}
	}
	frame := make([]byte, 0, frameSize+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	return append(frame, payload...), nil
}

// decodeOps parses a record payload (past the seq field already read by
// the frame scanner).
func decodeOps(payload []byte) ([]Op, error) {
	p := payload[8:] // seq
	if len(p) < 4 {
		return nil, fmt.Errorf("missing op count")
	}
	nops := int(binary.LittleEndian.Uint32(p[0:4]))
	p = p[4:]
	// Cap the preallocation by what the payload could possibly hold
	// (each op is ≥13 bytes): a corrupt count must not drive a huge
	// allocation before the per-op bounds checks reject it.
	preall := nops
	if m := len(p) / 13; preall > m {
		preall = m
	}
	ops := make([]Op, 0, preall)
	for i := 0; i < nops; i++ {
		if len(p) < 13 {
			return nil, fmt.Errorf("op %d truncated", i)
		}
		kind := OpKind(p[0])
		if kind < OpInsert || kind > OpDelete {
			return nil, fmt.Errorf("op %d has unknown kind %d", i, kind)
		}
		id := int64(binary.LittleEndian.Uint64(p[1:9]))
		nnz := int(binary.LittleEndian.Uint32(p[9:13]))
		p = p[13:]
		if len(p) < 12*nnz {
			return nil, fmt.Errorf("op %d tuple truncated (nnz %d)", i, nnz)
		}
		var t vec.Sparse
		if nnz > 0 {
			t = make(vec.Sparse, nnz)
			for j := 0; j < nnz; j++ {
				t[j] = vec.Entry{
					Dim: int(binary.LittleEndian.Uint32(p[12*j : 12*j+4])),
					Val: math.Float64frombits(binary.LittleEndian.Uint64(p[12*j+4 : 12*j+12])),
				}
			}
			p = p[12*nnz:]
		}
		ops = append(ops, Op{Kind: kind, ID: id, Tuple: t})
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after %d ops", len(p), nops)
	}
	return ops, nil
}
