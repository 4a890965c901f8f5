//go:build (!linux && !darwin) || nommap

package storage

import "os"

// Fallback build: no mmap. Tuple records are read with pread through the
// LRU buffer pool, which is what makes the fallback trivially
// answer-identical to the mapped build — the decoded bytes are the same,
// only the transport differs. Inverted lists are read the same way on
// both builds (ListFile).

// mmapEnabled reports whether this build maps tuple files.
const mmapEnabled = false

func mapFile(f *os.File, size int64) ([]byte, error) { return nil, nil }

func unmapFile(data []byte) error { return nil }
