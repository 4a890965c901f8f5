package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Posting is one inverted-list entry 〈dα, dαj〉: the tuple id and its
// coordinate in the list's dimension.
type Posting struct {
	ID  int
	Val float64
}

const postingBytes = 12 // uint32 id + float64 val

// listMagic identifies the inverted-list file.
var listMagic = [8]byte{'I', 'R', 'L', 'S', 'T', '0', '1', 0}

// WriteListFile persists inverted lists, streaming them one at a time:
// dims names the populated dimensions in ascending order, counts their
// list lengths, and fill(i, out) hands dims[i]'s postings to the sink,
// already sorted by descending value (ties by ascending id). The writer
// asks for the lists in order, once each, and has encoded whatever a
// sink call was given before that call returns, so the source may reuse
// its slices — and may still be producing list i+1 while list i is
// written. Format:
//
//	magic[8] | numLists uint32 | m uint32 |
//	directory: numLists × (dim uint32, count uint32, offset int64) |
//	posting data: count × (id uint32, val float64) per list
func WriteListFile(path string, m int, dims, counts []int, fill func(i int, out *ListSink) error) error {
	w, err := createFile(path)
	if err != nil {
		return err
	}
	w.buf = append(w.buf, listMagic[:]...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(dims)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(m))
	off := int64(8+8) + int64(16*len(dims))
	for i, d := range dims {
		w.room(16)
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(d))
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(counts[i]))
		w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(off))
		off += int64(postingBytes * counts[i])
	}
	out := &ListSink{w: w}
	for i := range dims {
		if w.err != nil {
			break
		}
		out.bytes = 0
		if err := fill(i, out); err != nil {
			w.fail(err)
		} else if out.bytes != int64(postingBytes*counts[i]) {
			w.fail(fmt.Errorf("storage: list of dimension %d takes %d bytes, directory says %d postings",
				dims[i], out.bytes, counts[i]))
		}
	}
	return w.finish()
}

// ListSink takes one list's postings, top down, from WriteListFile's
// source.
type ListSink struct {
	w     *fileWriter
	bytes int64 // taken for the list being filled
}

// Append encodes postings given in columnar form.
func (s *ListSink) Append(ids []int32, vals []float64) {
	w := s.w
	s.bytes += int64(postingBytes * len(ids))
	for len(ids) > 0 {
		w.room(postingBytes)
		n := min(len(ids), (cap(w.buf)-len(w.buf))/postingBytes)
		at := len(w.buf)
		w.buf = w.buf[:at+n*postingBytes]
		for j, id := range ids[:n] {
			p := w.buf[at+j*postingBytes : at+(j+1)*postingBytes]
			binary.LittleEndian.PutUint32(p[0:4], uint32(id))
			binary.LittleEndian.PutUint64(p[4:12], math.Float64bits(vals[j]))
		}
		ids, vals = ids[n:], vals[n:]
	}
}

// Raw takes postings that are already encoded: any stretch of another
// list file's posting data.
func (s *ListSink) Raw(p []byte) {
	s.w.write(p)
	s.bytes += int64(len(p))
}

// ListFile reads inverted lists persisted by WriteListFile. Sorted access
// proceeds through cursors, which read the file a page of postings at a
// time with pread and charge one sequential page to stats per page read.
// The file is never mapped and never pooled: a list is walked once from
// the top, so a mapping would only keep the pages a scan has passed (and
// the kernel's read-around of each) in the resident set, and a pool would
// only hold them in the heap instead.
type ListFile struct {
	pager *Pager
	stats *IOStats
	m     int
	dir   map[int]listExtent
}

type listExtent struct {
	off   int64
	count int
}

// OpenListFile opens an inverted-list file, reading its directory and
// integrity trailer once. poolPages does nothing: lists are read with
// pread. It stays for bench/ladder.go:142, which passes it;
// re-basing the benchmark (ROADMAP.md item 3) removes it.
func OpenListFile(path string, stats *IOStats, poolPages int) (*ListFile, error) {
	pager, err := openPager(path)
	if err != nil {
		return nil, err
	}
	lf := &ListFile{pager: pager, stats: stats}
	end, err := dataEnd(pager, path)
	if err != nil {
		pager.Close()
		return nil, err
	}
	hdr, err := pager.header(0, 16)
	if err != nil {
		pager.Close()
		return nil, err
	}
	if string(hdr[:8]) != string(listMagic[:]) {
		pager.Close()
		return nil, fmt.Errorf("storage: %s is not a list file", path)
	}
	n := int(binary.LittleEndian.Uint32(hdr[8:12]))
	lf.m = int(binary.LittleEndian.Uint32(hdr[12:16]))
	// The count comes from the file: it is held to what the payload can
	// hold before it sizes anything.
	if int64(n) > (end-16)/16 {
		pager.Close()
		return nil, fmt.Errorf("storage: %s claims %d lists, more directory entries than its %d bytes hold", path, n, end)
	}
	dirRaw, err := pager.header(16, 16*n)
	if err != nil {
		pager.Close()
		return nil, err
	}
	lf.dir = make(map[int]listExtent, n)
	for i := 0; i < n; i++ {
		base := 16 * i
		dim := int(binary.LittleEndian.Uint32(dirRaw[base : base+4]))
		cnt := int(binary.LittleEndian.Uint32(dirRaw[base+4 : base+8]))
		off := int64(binary.LittleEndian.Uint64(dirRaw[base+8 : base+16]))
		lf.dir[dim] = listExtent{off: off, count: cnt}
	}
	return lf, nil
}

// Close releases the file.
func (lf *ListFile) Close() error { return lf.pager.Close() }

// Dim returns the dimensionality m.
func (lf *ListFile) Dim() int { return lf.m }

// ListLen returns the number of postings in dimension dim's list (0 when
// the dimension has no list).
func (lf *ListFile) ListLen(dim int) int { return lf.dir[dim].count }

// RawPostings hands fn dimension dim's encoded postings, top down, in
// pieces of whole postings: what ListSink.Raw takes, and what a merge
// decodes in place. It is a bulk copy, not sorted access, and charges no
// meter. buf is the scratch the file is read through (see Pager.stream).
func (lf *ListFile) RawPostings(dim int, buf []byte, fn func(raw []byte)) error {
	ext := lf.dir[dim]
	return lf.pager.stream(ext.off, ext.count*postingBytes, buf[:len(buf)-len(buf)%postingBytes], fn)
}

// Cursor opens a sorted-access cursor over dimension dim's list, charging
// sequential pages to the file's own meter.
func (lf *ListFile) Cursor(dim int) *ListCursor { return lf.CursorWith(dim, lf.stats) }

// CursorWith opens a cursor whose sequential-page charges go to st
// instead of the file's meter — the hook concurrent servers use to meter
// each query separately (st is typically a child of the shared meter: IOStats.PerQuery).
func (lf *ListFile) CursorWith(dim int, st *IOStats) *ListCursor {
	ext, ok := lf.dir[dim]
	if !ok {
		return &ListCursor{} // empty cursor
	}
	return &ListCursor{lf: lf, ext: ext, stats: st}
}

// postingsPerPage is how many postings one page holds, and so how many
// one fill reads.
const postingsPerPage = PageSize / postingBytes

// listPage is the buffer a cursor reads its current page into.
type listPage [postingsPerPage * postingBytes]byte

// listPages recycles page buffers: a cursor takes one at its first read
// and hands it back on Release, which a scan calls for its cursors when
// it is itself released — so a query's cursors cost no allocation.
var listPages = sync.Pool{New: func() any { return new(listPage) }}

// ListCursor iterates one inverted list from the top (highest coordinate)
// downward, a page worth of postings at a time. A posting is decoded
// where it lies, when it is asked for, in the one page buffer the cursor
// read — the cursor holds no decoded copy.
type ListCursor struct {
	lf    *ListFile
	ext   listExtent
	stats *IOStats
	pos   int       // postings consumed
	raw   []byte    // the encoded postings of the current page not yet consumed, in page
	page  *listPage // from listPages, from the first read until Release
	err   error
}

// fill reads the next page of postings into the page buffer, with one
// pread, and charges one sequential page. A fill is exactly one page
// worth of postings except at the list tail, so this is the in-memory
// index's deterministic page model (one page per postingsPerPage
// consumed) and a disk scan meters like a memory scan, on every build.
func (c *ListCursor) fill() error {
	if c.page == nil {
		c.page = listPages.Get().(*listPage)
	}
	raw := c.page[:min(postingsPerPage, c.ext.count-c.pos)*postingBytes]
	if err := c.lf.pager.readAt(c.ext.off+int64(c.pos*postingBytes), raw); err != nil {
		return err
	}
	if c.stats != nil {
		c.stats.AddSeqPage(1)
	}
	c.raw = raw
	return nil
}

// Peek returns the next posting without consuming it; ok=false at list
// end — and after a page read has failed, which is not the end of the
// list: Err tells the two apart, and a caller that takes ok=false for
// exhaustion without asking would rank a truncated list.
func (c *ListCursor) Peek() (Posting, bool) {
	if len(c.raw) == 0 {
		if c.lf == nil || c.pos >= c.ext.count || c.err != nil {
			return Posting{}, false
		}
		if c.err = c.fill(); c.err != nil {
			return Posting{}, false
		}
	}
	return Posting{
		ID:  int(int32(binary.LittleEndian.Uint32(c.raw[0:4]))),
		Val: math.Float64frombits(binary.LittleEndian.Uint64(c.raw[4:12])),
	}, true
}

// Next consumes and returns the next posting; ok=false at list end.
func (c *ListCursor) Next() (Posting, bool) {
	p, ok := c.Peek()
	if !ok {
		return Posting{}, false
	}
	c.raw = c.raw[postingBytes:]
	c.pos++
	return p, true
}

// Ahead writes into dst the ids of the postings that follow the next
// from ones (from = 0 starts at the posting Next returns next), as far
// as the current page holds them, and returns how many it wrote. It is a
// look, not an access: it charges nothing, consumes nothing and never
// reads a page — a cursor whose page is used up sees none.
func (c *ListCursor) Ahead(from int, dst []int32) int {
	if from*postingBytes >= len(c.raw) {
		return 0
	}
	raw := c.raw[from*postingBytes:]
	n := min(len(dst), len(raw)/postingBytes)
	for i := range n {
		dst[i] = int32(binary.LittleEndian.Uint32(raw[i*postingBytes:]))
	}
	return n
}

// Consumed reports how many postings this cursor has consumed.
func (c *ListCursor) Consumed() int { return c.pos }

// Err returns the page read failure that stopped the cursor, if any.
func (c *ListCursor) Err() error { return c.err }

// CloneCursor returns an independent cursor at the same position, with
// a page buffer of its own holding what is left of the current page, so
// reading those postings through the clone charges no further I/O; pages
// past it are charged to the clone's meter as usual.
func (c *ListCursor) CloneCursor() *ListCursor {
	cp := *c
	cp.page, cp.raw = nil, nil
	if len(c.raw) > 0 {
		cp.page = listPages.Get().(*listPage)
		cp.raw = cp.page[:copy(cp.page[:], c.raw)]
	}
	return &cp
}

// Release hands the cursor's page buffer back for another cursor to read
// into; the scan that owns the cursor calls it when the scan is released
// itself. A later read takes a buffer again. Releasing twice is a no-op.
func (c *ListCursor) Release() {
	if c.page != nil {
		listPages.Put(c.page)
		c.page, c.raw = nil, nil
	}
}
