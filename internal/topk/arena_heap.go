//go:build !linux || race

package topk

import (
	"sync"
	"sync/atomic"
)

// Off Linux, and under the race detector (which sees writes to heap
// memory only), table pages are heap pages recycled through a sync.Pool.
var (
	pagePool = sync.Pool{New: func() any { return new(page) }}
	pagesOut atomic.Int64
)

func getPage() *page { pagesOut.Add(1); return pagePool.Get().(*page) }

func putPage(pg *page) { pagesOut.Add(-1); pagePool.Put(pg) }

// PageBytes reports the bytes of candidate-table pages handed out to
// scans; the heap statistics count them too.
func PageBytes() int64 { return pagesOut.Load() * pageBytes }
