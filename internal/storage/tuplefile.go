package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/vec"
)

// tupleMagic identifies the external tuple file ("external file holding
// the entire data vectors" in the paper's system model). Its last three
// bytes are the format version; a file of another version is refused.
var tupleMagic = [8]byte{'I', 'R', 'T', 'U', 'P', '0', '0', '3'}

// WriteTupleFile persists tuples to path. The format is:
//
//	magic[8] | numTuples uint32 | m uint32 | offsets [numTuples]int64 |
//	records
//
// Records are addressed by the offsets table, enabling O(1) random
// access. A record of nnz entries is encoded one of two ways, whichever
// is shorter (dense: 8·m < (w+8)·nnz, ties sparse):
//
//	sparse: nnz uint32 | nnz dims | nnz × float64
//	dense:  nnz uint32 | m × float64, slot d holding dimension d's value
//
// A sparse record holds its dims in one ascending block, w bytes each
// (w = 2 when m ≤ 65 536, else 4), then the values in the same order.
// A dense slot of 0 is a dimension the tuple does not have: a stored
// value is in (0, 1] (vec.Sparse.Validate), so 0 is never data. The
// encoding is a function of (nnz, m) alone — the reader recomputes it
// from the record's nnz and the header's m, and no record carries a
// flag. RecordBytes is the one place the sizes are defined.
func WriteTupleFile(path string, tuples []vec.Sparse, m int) error {
	return WriteTupleRecords(path, len(tuples), m,
		func(id int) int { return RecordBytes(len(tuples[id]), m) },
		func(out *TupleSink) error {
			for _, t := range tuples {
				out.Tuple(t)
			}
			return nil
		})
}

// dimWidth is the bytes a sparse record of a file of dimensionality m
// spends on one dimension id: 2 while every id, < m, fits in a uint16.
func dimWidth(m int) int {
	if m <= 1<<16 {
		return 2
	}
	return 4
}

// dense reports whether a record of nnz entries in a file of
// dimensionality m is encoded as m value slots rather than nnz dims and
// nnz values.
func dense(nnz, m int) bool { return 8*m < (dimWidth(m)+8)*nnz }

// RecordBytes is the encoded length of a record of nnz entries in a
// tuple file of dimensionality m — what a random access to it reads, so
// the in-memory indexes charge it too.
func RecordBytes(nnz, m int) int {
	if dense(nnz, m) {
		return 4 + 8*m
	}
	return 4 + (dimWidth(m)+8)*nnz
}

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
	out := &TupleSink{w: w, m: m}
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
	m     int
	wrote int64
}

// Tuple encodes one record; a nil or empty vector is the empty record a
// deleted id keeps. A vector the file cannot hold — one Validate rejects,
// or with a dimension at or past m — fails the file instead.
func (s *TupleSink) Tuple(t vec.Sparse) {
	w := s.w
	if err := t.Validate(); err != nil {
		w.fail(fmt.Errorf("storage: a tuple the file cannot hold: %w", err))
		return
	}
	if d := t.MaxDim(); d >= s.m {
		w.fail(fmt.Errorf("storage: a tuple has dimension %d, the file holds [0,%d)", d, s.m))
		return
	}
	size := RecordBytes(len(t), s.m)
	w.room(size)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(t)))
	if dense(len(t), s.m) {
		slots := len(w.buf)
		w.buf = append(w.buf, make([]byte, 8*s.m)...)
		for _, e := range t {
			binary.LittleEndian.PutUint64(w.buf[slots+8*e.Dim:], math.Float64bits(e.Val))
		}
	} else {
		wide := dimWidth(s.m) == 4
		for _, e := range t {
			if wide {
				w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(e.Dim))
			} else {
				w.buf = binary.LittleEndian.AppendUint16(w.buf, uint16(e.Dim))
			}
		}
		for _, e := range t {
			w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(e.Val))
		}
	}
	s.wrote += int64(size)
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
	pager *Pager
	stats *IOStats
	// offsets is the file's offsets table as encoded, read in place: a
	// view of the mapping.
	offsets []byte
	n       int
	end     int64 // where the payload, and so the last record, ends
	m       int
	w       int // dimWidth(m)
}

// OpenTupleFile opens and maps a tuple file. poolPages does nothing:
// records are read from the mapping. It stays for bench/ladder.go:146,
// which passes it; re-basing the benchmark (ROADMAP.md item 3) removes
// it.
func OpenTupleFile(path string, stats *IOStats, poolPages int) (*TupleFile, error) {
	pager, err := NewPager(path)
	if err != nil {
		return nil, err
	}
	tf := &TupleFile{pager: pager, stats: stats}
	if tf.end, err = dataEnd(pager, path); err != nil {
		pager.Close()
		return nil, err
	}
	hdr, err := pager.header(0, 16)
	if err != nil {
		pager.Close()
		return nil, err
	}
	if magic := string(hdr[:8]); magic != string(tupleMagic[:]) {
		pager.Close()
		if magic[:5] == string(tupleMagic[:5]) {
			return nil, fmt.Errorf("storage: %s is a tuple file of format %s, this build reads %s: regenerate it (irgen) or re-seed the node from a primary", path, magic, tupleMagic[:])
		}
		return nil, fmt.Errorf("storage: %s is not a tuple file", path)
	}
	tf.n = int(binary.LittleEndian.Uint32(hdr[8:12]))
	tf.m = int(binary.LittleEndian.Uint32(hdr[12:16]))
	tf.w = dimWidth(tf.m)
	// The count comes from the file: it is held to what the payload can
	// hold before it sizes anything.
	if int64(tf.n) > (tf.end-16)/8 {
		pager.Close()
		return nil, fmt.Errorf("storage: %s claims %d tuples, more offsets than its %d bytes hold", path, tf.n, tf.end)
	}
	if tf.offsets, err = pager.header(16, 8*tf.n); err != nil {
		pager.Close()
		return nil, err
	}
	return tf, nil
}

// Close releases the file.
func (tf *TupleFile) Close() error { return tf.pager.Close() }

// NumTuples returns the dataset cardinality.
func (tf *TupleFile) NumTuples() int { return tf.n }

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
	off = int64(binary.LittleEndian.Uint64(tf.offsets[8*id:]))
	end := tf.end
	if id+1 < tf.n {
		end = int64(binary.LittleEndian.Uint64(tf.offsets[8*id+8:]))
	}
	return off, int(end - off)
}

// RawRecords hands fn the encoded records of tuples [from, to) — they
// are contiguous in the file — in order and in pieces that need not end
// on a record boundary: what TupleSink.Raw takes. It is a bulk copy, not
// an access of the paper's cost model, and charges no meter. buf is the
// scratch the file is read through (see Pager.stream).
func (tf *TupleFile) RawRecords(from, to int, buf []byte, fn func(raw []byte)) error {
	if from < 0 || to > tf.n || from > to {
		return fmt.Errorf("storage: tuple range [%d,%d) outside [0,%d)", from, to, tf.n)
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
// It materializes the whole vector: the write path and loaders want
// that; the query path projects instead (ProjectWith).
func (tf *TupleFile) GetWith(id int, st *IOStats) (vec.Sparse, error) {
	raw, nnz, err := tf.record(id, st)
	if err != nil {
		return nil, err
	}
	if !dense(nnz, tf.m) {
		t := make(vec.Sparse, nnz)
		for i := range t {
			t[i] = vec.Entry{Dim: tf.entryDim(raw, i), Val: tf.entryVal(raw, nnz, i)}
		}
		return t, nil
	}
	// A corrupt nnz is not trusted to size anything: a valid one is at
	// most m.
	t := make(vec.Sparse, 0, min(nnz, tf.m))
	for d := 0; d < tf.m; d++ {
		if v := slotVal(raw, d); v != 0 {
			t = append(t, vec.Entry{Dim: d, Val: v})
		}
	}
	if len(t) != nnz {
		return nil, fmt.Errorf("storage: tuple %d corrupt (nnz=%d, %d non-zero slots)", id, nnz, len(t))
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
	if dense(nnz, tf.m) {
		for i, dim := range dims {
			if uint(dim) < uint(tf.m) {
				dst[i] = slotVal(raw, dim)
			} else {
				dst[i] = 0
			}
		}
		return nil
	}
	// Merge dims against the record's dims block; only a matched entry's
	// value slot is read.
	j := 0
	for i, dim := range dims {
		for j < nnz && tf.entryDim(raw, j) < dim {
			j++
		}
		if j < nnz && tf.entryDim(raw, j) == dim {
			dst[i] = tf.entryVal(raw, nnz, j)
			j++
		} else {
			dst[i] = 0
		}
	}
	return nil
}

// record returns tuple id's raw record, a view of the mapping, and its
// entry count, charging st one logical random read (and one read served
// from the mapping): the paper's metrics count accesses, not transport.
func (tf *TupleFile) record(id int, st *IOStats) (raw []byte, nnz int, err error) {
	if id < 0 || id >= tf.n {
		return nil, 0, fmt.Errorf("storage: tuple id %d out of range [0,%d)", id, tf.n)
	}
	off, size := tf.span(id)
	raw, ok := tf.pager.Slice(off, size)
	if !ok {
		return nil, 0, fmt.Errorf("storage: tuple %d corrupt (record [%d,%d) outside the file)", id, off, off+int64(size))
	}
	if st != nil {
		st.AddRandRead(len(raw))
		st.AddBypass(1)
	}
	if len(raw) < 4 {
		return nil, 0, fmt.Errorf("storage: tuple %d corrupt (%d-byte record)", id, len(raw))
	}
	// The extent must be exactly what nnz promises: a sparse record's
	// values sit after its nnz dims, so a wrong nnz would read one block
	// as the other.
	nnz = int(binary.LittleEndian.Uint32(raw[0:4]))
	if RecordBytes(nnz, tf.m) != len(raw) {
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
// the file, is skipped — the real access is what fails on it.
func (tf *TupleFile) Prefetch(ids []int32) uint64 {
	mapped := tf.pager.mapped
	var sum uint64
	var offs, ends [16]int64
	for len(ids) > 0 {
		batch := ids[:min(len(ids), len(offs))]
		ids = ids[len(batch):]
		n := 0
		for _, id := range batch {
			if id < 0 || int(id) >= tf.n {
				continue
			}
			if off, size := tf.span(int(id)); size > 0 && tf.pager.within(off, int64(size)) {
				offs[n], ends[n] = off, off+int64(size)
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

// entryDim and entryVal decode the i-th dim and value of a raw sparse
// record of nnz entries, slotVal dimension d's slot of a raw dense one.
func (tf *TupleFile) entryDim(raw []byte, i int) int {
	if tf.w == 2 {
		return int(binary.LittleEndian.Uint16(raw[4+2*i:]))
	}
	return int(binary.LittleEndian.Uint32(raw[4+4*i:]))
}

func (tf *TupleFile) entryVal(raw []byte, nnz, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[4+tf.w*nnz+8*i:]))
}

func slotVal(raw []byte, d int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[4+8*d:]))
}
