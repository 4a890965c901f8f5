package storage

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// Pager mediates access to one file. Counting of logical I/O (sequential
// page vs random tuple fetch) is done by the owning TupleFile/ListFile
// because the distinction is semantic; the pager only moves bytes.
//
// A pager from NewPager serves random access: on platforms with mmap
// support (see mmap.go) the whole file is mapped read-only and Slice
// hands out zero-copy views; elsewhere ReadRange reads through an
// optional LRU buffer pool. A pager from openPager is neither mapped nor
// pooled: its reads (readAt, and the bulk copies of stream) go straight
// to the file, which is how an inverted list is read.
type Pager struct {
	f      *os.File
	size   int64
	pool   *lruCache
	fileID int
	mapped []byte // nil when the file is not mapped
}

var nextFileID atomic.Int64

// NewPager opens path for random access. poolPages > 0 enables a buffer
// pool of that many pages for the reads ReadRange makes when the file is
// not mapped. Pagers are safe for concurrent use: reads go through the
// preadv-style ReadAt and the buffer pool serializes internally.
func NewPager(path string, poolPages int) (*Pager, error) {
	p, err := openPager(path)
	if err != nil {
		return nil, err
	}
	if poolPages > 0 {
		p.pool = newLRU(poolPages)
	}
	// Best effort: a mapping failure (exotic filesystem, address-space
	// pressure) silently falls back to the pread path.
	if m, err := mapFile(p.f, p.size); err == nil {
		p.mapped = m
	}
	return p, nil
}

// openPager opens path for plain reads: no mapping, no pool.
func openPager(path string) (*Pager, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Pager{f: f, size: st.Size(), fileID: int(nextFileID.Add(1))}, nil
}

// Close unmaps (if mapped) and releases the underlying file. Callers
// must have drained readers first: slices handed out by Slice die with
// the mapping.
func (p *Pager) Close() error {
	err := unmapFile(p.mapped)
	p.mapped = nil
	if cerr := p.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Mapped reports whether the file is memory-mapped.
func (p *Pager) Mapped() bool { return p.mapped != nil }

// Slice returns a zero-copy read-only view of [off, off+n). ok=false
// when the file is not mapped or the range is out of bounds; callers
// then use ReadRange. The slice is valid until Close — callers must
// decode out of it, not retain it.
func (p *Pager) Slice(off int64, n int) ([]byte, bool) {
	if p.mapped == nil || !p.within(off, int64(n)) {
		return nil, false
	}
	return p.mapped[off : off+int64(n) : off+int64(n)], true
}

// readAt fills dst from the file at off with one pread, bypassing the
// pool. A range past the size the file had at open is refused; a file
// cut short since then fails with the read's io.EOF.
func (p *Pager) readAt(off int64, dst []byte) error {
	if !p.within(off, int64(len(dst))) {
		return fmt.Errorf("storage: read [%d,%d) beyond file size %d", off, off+int64(len(dst)), p.size)
	}
	_, err := p.f.ReadAt(dst, off)
	return err
}

// within reports whether [off, off+n) lies inside the file as it was at
// open, without overflowing on offsets a corrupt file supplies.
func (p *Pager) within(off, n int64) bool {
	return off >= 0 && n >= 0 && off <= p.size && n <= p.size-off
}

// header returns the bytes [off, off+n) for an opener to decode its
// tables from: a view of the mapping when the file is mapped (so the
// tuple file's offsets table is read in place and opening it copies
// nothing), else a copy read once, past the pool. n comes from the file, so the range is checked
// before anything is sized by it.
func (p *Pager) header(off int64, n int) ([]byte, error) {
	if !p.within(off, int64(n)) {
		return nil, fmt.Errorf("storage: header [%d,%d) beyond file size %d", off, off+int64(n), p.size)
	}
	if raw, ok := p.Slice(off, n); ok {
		return raw, nil
	}
	raw := make([]byte, n)
	return raw, p.readAt(off, raw)
}

// stream hands fn the bytes [off, off+n) in file order, for callers that
// copy them somewhere else, piece by piece, read into buf: every piece
// but the last has buf's full length. The reads go straight to the file,
// mapped or not: a bulk copy through the buffer pool would evict every
// page the queries put there, and one through the mapping would leave
// the whole extent in the resident set. fn must be done with a piece
// when it returns.
func (p *Pager) stream(off int64, n int, buf []byte, fn func(raw []byte)) error {
	if !p.within(off, int64(n)) {
		return fmt.Errorf("storage: read [%d,%d) beyond file size %d", off, off+int64(n), p.size)
	}
	if len(buf) == 0 && n > 0 {
		return fmt.Errorf("storage: no scratch to read the file through")
	}
	for n > 0 {
		piece := buf[:min(n, len(buf))]
		if err := p.readAt(off, piece); err != nil {
			return err
		}
		fn(piece)
		off += int64(len(piece))
		n -= len(piece)
	}
	return nil
}

// Size returns the file size in bytes.
func (p *Pager) Size() int64 { return p.size }

// page returns the content of page no (possibly short at EOF), noting
// whether it was served from the pool.
func (p *Pager) page(no int64) ([]byte, bool, error) {
	if p.pool != nil {
		if v, ok := p.pool.get(lruKey{file: p.fileID, id: no}); ok {
			return v.([]byte), true, nil
		}
	}
	off := no * PageSize
	n := int64(PageSize)
	if off+n > p.size {
		n = p.size - off
	}
	if n <= 0 {
		return nil, false, io.EOF
	}
	buf := make([]byte, n)
	if _, err := p.f.ReadAt(buf, off); err != nil {
		return nil, false, err
	}
	if p.pool != nil {
		p.pool.put(lruKey{file: p.fileID, id: no}, buf)
	}
	return buf, false, nil
}

// ReadRange fills dst from the file starting at off, through the buffer
// pool. It returns the number of pool misses (pages physically fetched).
func (p *Pager) ReadRange(off int64, dst []byte) (misses int, err error) {
	if !p.within(off, int64(len(dst))) {
		return 0, fmt.Errorf("storage: read [%d,%d) beyond file size %d", off, off+int64(len(dst)), p.size)
	}
	done := 0
	for done < len(dst) {
		pos := off + int64(done)
		pageNo := pos / PageSize
		pageOff := int(pos % PageSize)
		pg, hit, err := p.page(pageNo)
		if err != nil {
			return misses, err
		}
		if !hit {
			misses++
		}
		n := copy(dst[done:], pg[pageOff:])
		if n == 0 {
			return misses, io.ErrUnexpectedEOF
		}
		done += n
	}
	return misses, nil
}
