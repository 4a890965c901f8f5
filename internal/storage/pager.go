package storage

import (
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// Pager mediates page-granular access to a file through an optional LRU
// buffer pool. Counting of logical I/O (sequential page vs random tuple
// fetch) is done by the owning TupleFile/ListFile because the distinction
// is semantic; the pager only tracks physical page residency.
//
// On platforms with mmap support (see mmap.go) the whole file is also
// mapped read-only; Slice then hands out zero-copy views that bypass the
// buffer pool entirely. ReadRange always uses the pread+pool path, so
// callers choose per access whether pool accounting applies. Bulk copies
// of whole extents (stream) use neither the pool nor a meter.
type Pager struct {
	f      *os.File
	size   int64
	pool   *lruCache
	fileID int
	mapped []byte // nil when the build/platform cannot map
}

var nextFileID atomic.Int64

// NewPager opens path for reading. poolPages > 0 enables a buffer pool of
// that many pages shared by all reads through this pager. Pagers are safe
// for concurrent use: reads go through the preadv-style ReadAt and the
// buffer pool serializes internally.
func NewPager(path string, poolPages int) (*Pager, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	p := &Pager{f: f, size: st.Size(), fileID: int(nextFileID.Add(1))}
	if poolPages > 0 {
		p.pool = newLRU(poolPages)
	}
	// Best effort: a mapping failure (exotic filesystem, address-space
	// pressure) silently falls back to the pread path.
	if m, err := mapFile(f, p.size); err == nil {
		p.mapped = m
	}
	return p, nil
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

// Mapped reports whether the file is memory-mapped in this build.
func (p *Pager) Mapped() bool { return p.mapped != nil }

// Slice returns a zero-copy read-only view of [off, off+n), bypassing
// the buffer pool. ok=false when the file is not mapped (fallback build)
// or the range is out of bounds; callers then use ReadRange. The slice
// is valid until Close — callers must decode out of it, not retain it.
func (p *Pager) Slice(off int64, n int) ([]byte, bool) {
	if p.mapped == nil || off < 0 || n < 0 || off+int64(n) > p.size {
		return nil, false
	}
	return p.mapped[off : off+int64(n) : off+int64(n)], true
}

// header returns the bytes [off, off+n) for an opener to decode its
// tables from: a view of the mapping when the file is mapped (so opening
// a generation copies nothing but the decoded tables), else a copy read
// through the buffer pool.
func (p *Pager) header(off int64, n int) ([]byte, error) {
	if raw, ok := p.Slice(off, n); ok {
		return raw, nil
	}
	raw := make([]byte, n)
	_, err := p.ReadRange(off, raw)
	return raw, err
}

// stream hands fn the bytes [off, off+n) in file order, for callers that
// copy them somewhere else: the whole range as one view of the mapping
// when the file is mapped, else piece by piece, read into buf. Every
// piece but the last has buf's full length. The unmapped reads go
// straight to the file: a bulk copy through the buffer pool would evict
// every page the queries put there and allocate one page buffer per
// page it passes. fn must be done with a piece when it returns.
func (p *Pager) stream(off int64, n int, buf []byte, fn func(raw []byte)) error {
	if raw, ok := p.Slice(off, n); ok {
		fn(raw)
		return nil
	}
	if off < 0 || n < 0 || off+int64(n) > p.size {
		return fmt.Errorf("storage: read [%d,%d) beyond file size %d", off, off+int64(n), p.size)
	}
	if len(buf) == 0 && n > 0 {
		return fmt.Errorf("storage: no scratch to read an unmapped file through")
	}
	for n > 0 {
		piece := buf[:min(n, len(buf))]
		if _, err := p.f.ReadAt(piece, off); err != nil {
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

// ReadRange fills dst from the file starting at off. It returns the
// number of pool misses (pages physically fetched), which the caller
// converts into logical I/O counts.
func (p *Pager) ReadRange(off int64, dst []byte) (misses int, err error) {
	if off < 0 || off+int64(len(dst)) > p.size {
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
