//go:build unix

package storage

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"syscall"
	"unsafe"
)

// Read-only mmap support for the tuple file. Only random access is
// mapped: a candidate's record is fetched wherever its id points, and a
// view of the mapping serves it with no syscall, no buffer and no pool.
// The inverted lists are read with pread instead (ListFile): sorted
// access walks a list once from the top, and a mapping would keep every
// page a scan has passed, with the kernel's fault-around of each, in
// the resident set. Generation files are immutable once written
// (writers always create a fresh generation and swap), so a shared
// read-only mapping is safe for any number of concurrent readers. The
// mapping pins the file's data blocks via the fd, so a checkpoint swap
// may unlink the path at any time; readers drain (the engine's write
// lock) before Close munmaps.
//
// A page of the mapping the file no longer backs (it was cut short
// under the open pager) or the disk cannot read faults on access. The
// live mappings are registered by address so that CatchFault can turn
// such a fault into the reading query's error.

// mapping is the address range of one live tuple mapping.
type mapping struct {
	lo, hi uintptr
	path   string
}

var mappings struct {
	sync.Mutex
	live []mapping
}

// mapFile maps size bytes of f read-only and registers the range for
// CatchFault. A file that cannot be mapped (empty, too large for the
// address space, on a filesystem without mmap) fails.
func mapFile(f *os.File, size int64) ([]byte, error) {
	if size <= 0 || int64(int(size)) != size {
		return nil, fmt.Errorf("storage: cannot map %s: %d bytes", f.Name(), size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("storage: cannot map %s: %w", f.Name(), err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	mappings.Lock()
	mappings.live = append(mappings.live, mapping{lo: lo, hi: lo + uintptr(len(data)), path: f.Name()})
	mappings.Unlock()
	return data, nil
}

// unmapFile unregisters and releases a mapping returned by mapFile.
func unmapFile(data []byte) error {
	if data == nil {
		return nil
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(data)))
	mappings.Lock()
	mappings.live = slices.DeleteFunc(mappings.live, func(m mapping) bool { return m.lo == lo })
	mappings.Unlock()
	return syscall.Munmap(data)
}

// CatchFault, deferred by a goroutine that has called
// debug.SetPanicOnFault(true) before reading tuple records, turns a
// memory fault inside a live tuple mapping into *err. Any other panic,
// a fault elsewhere included, goes on.
func CatchFault(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if f, ok := r.(interface{ Addr() uintptr }); ok {
		mappings.Lock()
		defer mappings.Unlock()
		for _, m := range mappings.live {
			if m.lo <= f.Addr() && f.Addr() < m.hi {
				*err = fmt.Errorf("storage: %s: read fault at offset %d (the file is shorter than at open, or unreadable)", m.path, f.Addr()-m.lo)
				return
			}
		}
	}
	panic(r)
}
