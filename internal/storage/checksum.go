package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Every persisted file ends with a 16-byte integrity trailer:
//
//	magic "IRCRC001" (8) | crc32-IEEE of all preceding bytes (4) | pad (4)
//
// Openers check the trailer's presence (cheap); VerifyChecksum re-reads
// the file and validates the CRC (full scan, meant for irgen/irquery's
// explicit verification paths and tests).

var crcMagic = [8]byte{'I', 'R', 'C', 'R', 'C', '0', '0', '1'}

// trailerSize is the byte length of the integrity trailer.
const trailerSize = 16

// chunkSize is how much a dataset writer encodes before it checksums
// and writes: one crc32.Update and one write syscall per MiB instead of
// one of each per record (four million of each for ST n = 200 000).
const chunkSize = 1 << 20

// fileWriter writes one persisted file chunk by chunk under a running
// CRC. Encoders append to buf and call flush when the next record no
// longer fits. The first failure sticks (later chunks are dropped) and
// finish reports it, having removed the partial file.
type fileWriter struct {
	f   *os.File
	buf []byte // the open chunk, capacity chunkSize
	crc uint32
	err error
}

func createFile(path string) (*fileWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &fileWriter{f: f, buf: make([]byte, 0, chunkSize)}, nil
}

// room makes sure the open chunk can take n more bytes without growing,
// flushing it first when it cannot. A record larger than a whole chunk
// is left to append's growth.
func (w *fileWriter) room(n int) {
	if cap(w.buf)-len(w.buf) < n {
		w.flush()
	}
}

// write appends bytes that are already in the file's encoding, filling
// and flushing chunks as it goes.
func (w *fileWriter) write(p []byte) {
	for len(p) > 0 {
		w.room(1)
		n := copy(w.buf[len(w.buf):cap(w.buf)], p)
		w.buf = w.buf[:len(w.buf)+n]
		p = p[n:]
	}
}

// flush checksums and writes the open chunk.
func (w *fileWriter) flush() {
	if w.err == nil && len(w.buf) > 0 {
		w.crc = crc32.Update(w.crc, crc32.IEEETable, w.buf)
		_, w.err = w.f.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// fail records err as the writer's failure unless one came first.
func (w *fileWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// finish writes the last chunk and the integrity trailer (which the CRC
// does not cover) and closes the file. On any failure, Close's included,
// the partial file is removed: a truncated generation file must not
// survive for a later open or sweep to trip over.
func (w *fileWriter) finish() error {
	w.flush()
	if w.err == nil {
		var tr [trailerSize]byte
		copy(tr[:8], crcMagic[:])
		binary.LittleEndian.PutUint32(tr[8:12], w.crc)
		_, w.err = w.f.Write(tr[:])
	}
	if err := w.f.Close(); err != nil {
		w.fail(err)
	}
	if w.err != nil {
		os.Remove(w.f.Name())
	}
	return w.err
}

// dataEnd validates the trailer's presence via the pager and returns the
// offset where payload data ends.
func dataEnd(p *Pager, path string) (int64, error) {
	if p.Size() < trailerSize {
		return 0, fmt.Errorf("storage: %s too short for integrity trailer", path)
	}
	tr, err := p.header(p.Size()-trailerSize, trailerSize)
	if err != nil {
		return 0, err
	}
	if string(tr[:8]) != string(crcMagic[:]) {
		return 0, fmt.Errorf("storage: %s missing integrity trailer (truncated or foreign file)", path)
	}
	return p.Size() - trailerSize, nil
}

// VerifyChecksum re-reads path in full and validates its CRC trailer.
func VerifyChecksum(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < trailerSize {
		return fmt.Errorf("storage: %s too short for integrity trailer", path)
	}
	payload := st.Size() - trailerSize
	h := crc32.NewIEEE()
	if _, err := io.CopyN(h, f, payload); err != nil {
		return err
	}
	tr := make([]byte, trailerSize)
	if _, err := io.ReadFull(f, tr); err != nil {
		return err
	}
	if string(tr[:8]) != string(crcMagic[:]) {
		return fmt.Errorf("storage: %s missing integrity trailer", path)
	}
	want := binary.LittleEndian.Uint32(tr[8:12])
	if got := h.Sum32(); got != want {
		return fmt.Errorf("storage: %s corrupt: crc %08x, trailer says %08x", path, got, want)
	}
	return nil
}
