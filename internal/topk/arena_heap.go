//go:build !linux || race

package topk

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Off Linux, and under the race detector (which sees writes to heap
// memory only), spans are heap arrays recycled through one sync.Pool per
// class.
var (
	spanPools [spanClasses]sync.Pool
	spansOut  atomic.Int64
)

func getSpan(c int) unsafe.Pointer {
	spansOut.Add(int64(spanBytes(c)))
	if p, ok := spanPools[c].Get().(unsafe.Pointer); ok {
		return p
	}
	return unsafe.Pointer(unsafe.SliceData(make([]uint64, spanBytes(c)/8)))
}

func putSpan(p unsafe.Pointer, c int) {
	spansOut.Add(-int64(spanBytes(c)))
	spanPools[c].Put(p)
}

// PageBytes reports the bytes of spans handed out to scans and region
// computations; the heap statistics count them too.
func PageBytes() int64 { return spansOut.Load() }
