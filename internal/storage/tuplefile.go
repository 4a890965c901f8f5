package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/vec"
)

// tupleMagic identifies the external tuple file ("external file holding
// the entire data vectors" in the paper's system model).
var tupleMagic = [8]byte{'I', 'R', 'T', 'U', 'P', '0', '0', '1'}

// WriteTupleFile persists tuples to path. The format is:
//
//	magic[8] | numTuples uint32 | m uint32 | offsets [numTuples]int64 |
//	records: (nnz uint32, nnz × (dim uint32, val float64))
//
// Records are addressed by the offsets table, enabling O(1) random access.
func WriteTupleFile(path string, tuples []vec.Sparse, m int) error {
	return WriteTupleRecords(path, len(tuples), m,
		func(id int) int { return recordSize(len(tuples[id])) },
		func(out *TupleSink) error {
			for _, t := range tuples {
				out.Tuple(t)
			}
			return nil
		})
}

// recordSize is the encoded length of a record of nnz entries.
func recordSize(nnz int) int { return 4 + 12*nnz }

// WriteTupleRecords is WriteTupleFile for a source that holds no tuple
// slice: size(id) is the encoded length of tuple id's record, asked once
// per id in order for the offsets table, and records then hands the n
// records to the sink in id order — encoded from a vector, or as bytes
// another tuple file already holds. The records must take exactly the
// bytes the sizes promised, or the file is refused.
func WriteTupleRecords(path string, n, m int, size func(id int) int, records func(out *TupleSink) error) error {
	w, err := createFile(path)
	if err != nil {
		return err
	}
	w.buf = append(w.buf, tupleMagic[:]...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(n))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(m))
	first := int64(8+8) + int64(8*n)
	off := first
	for id := 0; id < n; id++ {
		w.room(8)
		w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(off))
		off += int64(size(id))
	}
	out := &TupleSink{w: w}
	if err := records(out); err != nil {
		w.fail(err)
	} else if out.wrote != off-first {
		w.fail(fmt.Errorf("storage: tuple records take %d bytes, the offsets table says %d", out.wrote, off-first))
	}
	return w.finish()
}

// TupleSink takes a tuple file's records, in id order, from
// WriteTupleRecords' source.
type TupleSink struct {
	w     *fileWriter
	wrote int64
}

// Tuple encodes one record; a nil or empty vector is the empty record a
// deleted id keeps.
func (s *TupleSink) Tuple(t vec.Sparse) {
	w := s.w
	w.room(recordSize(len(t)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(t)))
	for _, e := range t {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(e.Dim))
		w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(e.Val))
	}
	s.wrote += int64(recordSize(len(t)))
}

// Raw takes records that are already encoded — any stretch of another
// tuple file's record area; it need not end on a record boundary.
func (s *TupleSink) Raw(p []byte) {
	s.w.write(p)
	s.wrote += int64(len(p))
}

// TupleFile provides random access to tuples persisted by WriteTupleFile.
// Every Get is accounted as one random I/O against the supplied stats,
// mirroring the paper's accounting where each evaluated candidate costs
// one random fetch of its full vector.
type TupleFile struct {
	pager   *Pager
	stats   *IOStats
	offsets []int64
	end     int64 // where the payload, and so the last record, ends
	m       int
}

// OpenTupleFile opens a tuple file, mapped where the build can map it.
// poolPages sizes the buffer pool the physical reads go through where it
// cannot (0 disables it); logical random-read counting is unaffected by
// pool hits.
func OpenTupleFile(path string, stats *IOStats, poolPages int) (*TupleFile, error) {
	pager, err := NewPager(path, poolPages)
	if err != nil {
		return nil, err
	}
	tf := &TupleFile{pager: pager, stats: stats}
	hdr, err := pager.header(0, 16)
	if err != nil {
		pager.Close()
		return nil, err
	}
	if string(hdr[:8]) != string(tupleMagic[:]) {
		pager.Close()
		return nil, fmt.Errorf("storage: %s is not a tuple file", path)
	}
	n := int(binary.LittleEndian.Uint32(hdr[8:12]))
	tf.m = int(binary.LittleEndian.Uint32(hdr[12:16]))
	offRaw, err := pager.header(16, 8*n)
	if err != nil {
		pager.Close()
		return nil, err
	}
	tf.offsets = make([]int64, n)
	for i := 0; i < n; i++ {
		tf.offsets[i] = int64(binary.LittleEndian.Uint64(offRaw[8*i:]))
	}
	if tf.end, err = dataEnd(pager, path); err != nil {
		pager.Close()
		return nil, err
	}
	return tf, nil
}

// Close releases the file.
func (tf *TupleFile) Close() error { return tf.pager.Close() }

// NumTuples returns the dataset cardinality.
func (tf *TupleFile) NumTuples() int { return len(tf.offsets) }

// Dim returns the dimensionality m.
func (tf *TupleFile) Dim() int { return tf.m }

// RecordSize returns the encoded length of tuple id's record.
func (tf *TupleFile) RecordSize(id int) int {
	_, size := tf.span(id)
	return size
}

// span returns where tuple id's record starts and its length: records
// are contiguous, so one ends where the next begins, the last where the
// payload does.
func (tf *TupleFile) span(id int) (off int64, size int) {
	end := tf.end
	if id+1 < len(tf.offsets) {
		end = tf.offsets[id+1]
	}
	return tf.offsets[id], int(end - tf.offsets[id])
}

// RawRecords hands fn the encoded records of tuples [from, to) — they
// are contiguous in the file — in order and in pieces that need not end
// on a record boundary: what TupleSink.Raw takes. It is a bulk copy, not
// an access of the paper's cost model, and charges no meter. buf is the
// scratch the file is read through (see Pager.stream).
func (tf *TupleFile) RawRecords(from, to int, buf []byte, fn func(raw []byte)) error {
	if from < 0 || to > len(tf.offsets) || from > to {
		return fmt.Errorf("storage: tuple range [%d,%d) outside [0,%d)", from, to, len(tf.offsets))
	}
	if from == to {
		return nil
	}
	off, _ := tf.span(from)
	last, size := tf.span(to - 1)
	return tf.pager.stream(off, int(last+int64(size)-off), buf, fn)
}

// Get fetches tuple id. One logical random read is charged per call.
func (tf *TupleFile) Get(id int) (vec.Sparse, error) { return tf.GetWith(id, tf.stats) }

// GetWith fetches tuple id, charging the random read to st instead of the
// file's meter (st is typically a per-query child of the shared meter).
// It materializes the whole vector: /tuple, the write path and loaders
// want that; the query path projects instead (ProjectWith).
func (tf *TupleFile) GetWith(id int, st *IOStats) (vec.Sparse, error) {
	raw, nnz, err := tf.record(id, st)
	if err != nil {
		return nil, err
	}
	t := make(vec.Sparse, nnz)
	for i := range t {
		t[i] = vec.Entry{Dim: entryDim(raw, i), Val: entryVal(raw, i)}
	}
	return t, nil
}

// ProjectWith is the query path's random access: it writes tuple id's
// coordinates on dims (ascending, as vec.Query keeps them) into dst —
// exactly vec.Query.ProjectInto of the tuple GetWith would return — and
// charges st the same logical read, without materializing the vector.
// Empty dims charge the read and touch nothing else.
func (tf *TupleFile) ProjectWith(id int, dims []int, dst []float64, st *IOStats) error {
	raw, nnz, err := tf.record(id, st)
	if err != nil {
		return err
	}
	j := 0
	for i, dim := range dims {
		for j < nnz && entryDim(raw, j) < dim {
			j++
		}
		if j < nnz && entryDim(raw, j) == dim {
			dst[i] = entryVal(raw, j)
			j++
		} else {
			dst[i] = 0
		}
	}
	return nil
}

// record returns tuple id's raw record and its entry count, charging st
// one logical random read. On a mapped pager the record is a view of the
// mmap region (no copy, no buffer-pool traffic); the charge is identical
// either way, so the paper's metrics don't depend on the transport.
func (tf *TupleFile) record(id int, st *IOStats) (raw []byte, nnz int, err error) {
	if id < 0 || id >= len(tf.offsets) {
		return nil, 0, fmt.Errorf("storage: tuple id %d out of range [0,%d)", id, len(tf.offsets))
	}
	off, size := tf.span(id)
	raw, zeroCopy := tf.pager.Slice(off, size)
	if !zeroCopy {
		if size < 0 || off < 0 || off+int64(size) > tf.pager.Size() {
			// Checked before the buffer is made: a corrupt offsets table
			// must fail the read, not size an allocation.
			return nil, 0, fmt.Errorf("storage: tuple %d corrupt (record [%d,%d) outside the file)", id, off, off+int64(size))
		}
		raw = make([]byte, size)
		if _, err := tf.pager.ReadRange(off, raw); err != nil {
			return nil, 0, err
		}
	}
	if st != nil {
		st.AddRandRead(len(raw))
		if zeroCopy {
			st.AddBypass(1)
		}
	}
	nnz = int(binary.LittleEndian.Uint32(raw[0:4]))
	if 4+12*nnz > len(raw) {
		return nil, 0, fmt.Errorf("storage: tuple %d corrupt (nnz=%d, %d bytes)", id, nnz, len(raw))
	}
	return raw, nnz, nil
}

// cacheLine is the stride Prefetch touches a record at.
const cacheLine = 64

// Prefetch loads the cache lines of the named tuples' records in tight
// loops, so that their memory misses overlap instead of each stalling,
// in turn, the random access that reads the record later: per batch of
// up to 16 ids one loop reads every record's extent from the offsets
// table, the next touches every line of every record, so no record
// waits on its own offset. It is physical only: it charges no meter and
// decodes nothing, and what it returns is a sum of the bytes it touched,
// no use as data — a caller keeps it only so the loads are not optimized
// away. An id out of range, or a record the offsets table places outside
// the file, is skipped — the real access is what fails on it; on an
// unmapped file Prefetch does nothing.
func (tf *TupleFile) Prefetch(ids []int32) uint64 {
	mapped := tf.pager.mapped
	if mapped == nil {
		return 0
	}
	var sum uint64
	var offs, ends [16]int64
	for len(ids) > 0 {
		batch := ids[:min(len(ids), len(offs))]
		ids = ids[len(batch):]
		n := 0
		for _, id := range batch {
			if id < 0 || int(id) >= len(tf.offsets) {
				continue
			}
			off, size := tf.span(int(id))
			if end := off + int64(size); size > 0 && off >= 0 && end <= int64(len(mapped)) {
				offs[n], ends[n] = off, end
				n++
			}
		}
		for i := range n {
			for at := offs[i]; at < ends[i]; at += cacheLine {
				sum += uint64(mapped[at])
			}
			sum += uint64(mapped[ends[i]-1]) // the last line, when the stride stepped over it
		}
	}
	return sum
}

// entryDim and entryVal decode the i-th (dim uint32, val float64) entry
// of a raw record.
func entryDim(raw []byte, i int) int {
	return int(binary.LittleEndian.Uint32(raw[4+12*i:]))
}

func entryVal(raw []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[8+12*i:]))
}
