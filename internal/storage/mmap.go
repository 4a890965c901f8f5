//go:build (linux || darwin) && !nommap

package storage

import (
	"os"
	"syscall"
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
// The fallback build (mmap_fallback.go, tag nommap or an unsupported
// platform) reads tuple records with pread through the LRU pool.

// mmapEnabled reports whether this build maps tuple files.
const mmapEnabled = true

// mapFile maps size bytes of f read-only. A nil mapping (with nil
// error) means "not mapped" and callers fall back to pread.
func mapFile(f *os.File, size int64) ([]byte, error) {
	if size <= 0 || int64(int(size)) != size {
		return nil, nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, err
	}
	return data, nil
}

// unmapFile releases a mapping returned by mapFile.
func unmapFile(data []byte) error {
	if data == nil {
		return nil
	}
	return syscall.Munmap(data)
}
