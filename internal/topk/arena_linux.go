//go:build linux && !race

package topk

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// The page arena. On Linux table pages live outside the Go heap, in
// anonymous private mappings of chunkBytes, carved a page at a time and
// never unmapped. Pages hold no pointers, so the collector never needed
// to see them; while they were heap objects, GOGC's heap goal counted
// every live row a second time. A released page goes on a free list; one
// that stays idle through two collections — the lifetime a sync.Pool
// gives an object — is handed back to the kernel with MADV_DONTNEED and
// reads as zeros on its next use. A finalizer re-armed after every
// collection drives that (armSweep).
const chunkBytes = 1 << 20

var arena struct {
	mu    sync.Mutex
	chunk []uint64 // the uncarved rest of the newest mapping
	fresh []*page  // released since the last collection
	aged  []*page  // released before it: idle through one collection so far
	cold  []*page  // handed back to the kernel

	carved int // pages ever carved from mappings

	// For tests: mappings made, pages handed back, sweeps completed.
	maps, returned, sweeps int
}

func getPage() *page {
	arena.mu.Lock()
	defer arena.mu.Unlock()
	for _, free := range []*[]*page{&arena.fresh, &arena.aged, &arena.cold} {
		if n := len(*free); n > 0 {
			pg := (*free)[n-1]
			*free = (*free)[:n-1]
			return pg
		}
	}
	if len(arena.chunk) == 0 {
		b, err := syscall.Mmap(-1, 0, chunkBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic(fmt.Sprintf("topk: mapping %d KiB of table pages: %v", chunkBytes>>10, err))
		}
		if arena.maps == 0 {
			armSweep()
		}
		arena.maps++
		arena.chunk = unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(b))), chunkBytes/8)
	}
	pg := (*page)(arena.chunk[:pageRows])
	arena.chunk = arena.chunk[pageRows:]
	arena.carved++
	return pg
}

func putPage(pg *page) {
	arena.mu.Lock()
	arena.fresh = append(arena.fresh, pg)
	arena.mu.Unlock()
}

// gcTick's finalizer is the sweep's clock: it runs once a collection has
// found the tick unreachable, sweeps, and arms a new tick. The pointer
// field keeps it off the tiny allocator, whose objects may never be
// finalized.
type gcTick struct{ _ *byte }

func armSweep() {
	runtime.SetFinalizer(&gcTick{}, func(*gcTick) {
		sweep()
		armSweep()
	})
}

// sweep hands back the pages idle through two collections and ages those
// released since the last one. The pages being handed back are on no
// free list meanwhile, so no scan can take one mid-madvise.
func sweep() {
	arena.mu.Lock()
	old := arena.aged
	arena.aged, arena.fresh = arena.fresh, nil
	arena.mu.Unlock()
	for _, pg := range old {
		// A page the kernel would not take back stays resident and is as
		// good as a returned one; nothing depends on the zeros.
		_ = syscall.Madvise(unsafe.Slice((*byte)(unsafe.Pointer(pg)), pageBytes), syscall.MADV_DONTNEED)
	}
	arena.mu.Lock()
	arena.cold = append(arena.cold, old...)
	arena.returned += len(old)
	arena.sweeps++
	arena.mu.Unlock()
}

// PageBytes reports the bytes of candidate-table pages the process keeps
// resident: those held by tables plus idle ones not yet handed back. The
// heap statistics count none of them.
func PageBytes() int64 {
	arena.mu.Lock()
	defer arena.mu.Unlock()
	return int64(arena.carved-len(arena.cold)) * pageBytes
}
