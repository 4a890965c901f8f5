//go:build !linux || race

package topk

import (
	"sync"
	"unsafe"
)

// Off Linux, and under the race detector (which sees writes to heap
// memory only), pages are heap arrays recycled through a sync.Pool and
// buffers are heap arrays the collector takes back once released.
var pagePool sync.Pool

func allocPage() unsafe.Pointer {
	if p, ok := pagePool.Get().(unsafe.Pointer); ok {
		return p
	}
	return unsafe.Pointer(new(page))
}

func freePage(p unsafe.Pointer) { pagePool.Put(p) }

func allocBuffer(n int) unsafe.Pointer {
	return unsafe.Pointer(unsafe.SliceData(make([]uint64, n/8)))
}

func freeBuffer(unsafe.Pointer, int) {}

// PageBytes reports the bytes of spans handed out to scans and region
// computations; the heap statistics count them too.
func PageBytes() int64 { return held.Load() }
