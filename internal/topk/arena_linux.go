//go:build linux && !race

package topk

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// The page arena. On Linux spans live outside the Go heap, in anonymous
// private mappings. Spans hold no pointers, so the collector never
// needed to see them; while they were heap objects, GOGC's heap goal
// counted every live row a second time.
//
// Pages are carved from chunkBytes mappings, never unmapped. A released
// page goes on the free list; one that stays idle through two
// collections — the lifetime a sync.Pool gives an object — is handed
// back to the kernel with MADV_DONTNEED and reads as zeros on its next
// use. A finalizer re-armed after every collection drives that
// (armSweep). A buffer is a mapping of its own, unmapped when released.
const chunkBytes = 1 << 20

var arena struct {
	mu       sync.Mutex
	chunk    unsafe.Pointer // the uncarved rest of the newest chunk
	chunkLen int            // its bytes

	// The free pages by idleness.
	fresh []unsafe.Pointer // released since the last collection
	aged  []unsafe.Pointer // released before it: idle through one collection so far
	cold  []unsafe.Pointer // handed back to the kernel
	idle  int64            // bytes of free pages not yet handed back

	// For tests: chunks mapped, bytes handed back, sweeps completed.
	chunks, returned, sweeps int
}

func allocPage() unsafe.Pointer {
	arena.mu.Lock()
	defer arena.mu.Unlock()
	if p := pop(&arena.fresh); p != nil {
		arena.idle -= pageBytes
		return p
	}
	if p := pop(&arena.aged); p != nil {
		arena.idle -= pageBytes
		return p
	}
	if p := pop(&arena.cold); p != nil {
		return p
	}
	if arena.chunkLen == 0 {
		arena.chunk, arena.chunkLen = mapBytes(chunkBytes), chunkBytes
		if arena.chunks == 0 {
			armSweep()
		}
		arena.chunks++
	}
	p := arena.chunk
	arena.chunk, arena.chunkLen = unsafe.Add(p, pageBytes), arena.chunkLen-pageBytes
	return p
}

// pop takes the most recently freed page off a list, nil if it is empty.
func pop(free *[]unsafe.Pointer) unsafe.Pointer {
	k := len(*free)
	if k == 0 {
		return nil
	}
	p := (*free)[k-1]
	*free = (*free)[:k-1]
	return p
}

func freePage(p unsafe.Pointer) {
	arena.mu.Lock()
	arena.fresh = append(arena.fresh, p)
	arena.idle += pageBytes
	arena.mu.Unlock()
}

func allocBuffer(n int) unsafe.Pointer { return mapBytes(n) }

func freeBuffer(p unsafe.Pointer, n int) {
	if err := syscall.Munmap(unsafe.Slice((*byte)(p), n)); err != nil {
		panic(fmt.Sprintf("topk: unmapping %d KiB of scan memory: %v", n>>10, err))
	}
}

// mapBytes maps n bytes of anonymous memory.
func mapBytes(n int) unsafe.Pointer {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("topk: mapping %d KiB of scan memory: %v", n>>10, err))
	}
	return unsafe.Pointer(unsafe.SliceData(b))
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

// sweep hands back the pages idle through two collections and ages
// those released since the last one. The pages being handed back are
// on no free list meanwhile, so no scan can take one mid-madvise.
func sweep() {
	arena.mu.Lock()
	old := arena.aged
	arena.aged, arena.fresh = arena.fresh, nil
	arena.mu.Unlock()
	for _, p := range old {
		// A page the kernel would not take back stays resident and is as
		// good as a returned one; nothing depends on the zeros.
		_ = syscall.Madvise(unsafe.Slice((*byte)(p), pageBytes), syscall.MADV_DONTNEED)
	}
	returned := len(old) * pageBytes
	arena.mu.Lock()
	arena.cold = append(arena.cold, old...)
	arena.idle -= int64(returned)
	arena.returned += returned
	arena.sweeps++
	arena.mu.Unlock()
}

// PageBytes reports the bytes of scan memory the process keeps
// resident: the spans held by scans and region computations (encountered
// sets, candidate table pages, rank orders and their radix keys, core's
// per-candidate buffers) plus idle pages not yet handed back. The heap
// statistics count none of them.
func PageBytes() int64 {
	arena.mu.Lock()
	defer arena.mu.Unlock()
	return held.Load() + arena.idle
}
