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
// private mappings never unmapped: spans up to chunkBytes are carved
// from chunkBytes mappings, larger ones are mapped whole. Spans hold no
// pointers, so the collector never needed to see them; while they were
// heap objects, GOGC's heap goal counted every live row a second time. A
// released span goes on its class's free list; one that stays idle
// through two collections — the lifetime a sync.Pool gives an object —
// is handed back to the kernel with MADV_DONTNEED and reads as zeros on
// its next use. A finalizer re-armed after every collection drives that
// (armSweep).
const chunkBytes = 1 << 20

// spanList is one class's free spans by idleness.
type spanList struct {
	fresh []unsafe.Pointer // released since the last collection
	aged  []unsafe.Pointer // released before it: idle through one collection so far
	cold  []unsafe.Pointer // handed back to the kernel
}

var arena struct {
	mu       sync.Mutex
	chunk    unsafe.Pointer // the uncarved rest of the newest chunk
	chunkLen int            // its bytes
	free     [spanClasses]spanList

	resident int64 // bytes of spans held, or idle and not yet handed back

	// For tests: mappings made, bytes handed back, sweeps completed.
	maps, returned, sweeps int
}

func getSpan(c int) unsafe.Pointer {
	n := spanBytes(c)
	arena.mu.Lock()
	defer arena.mu.Unlock()
	fl := &arena.free[c]
	if p := pop(&fl.fresh); p != nil {
		return p
	}
	if p := pop(&fl.aged); p != nil {
		return p
	}
	arena.resident += int64(n)
	if p := pop(&fl.cold); p != nil {
		return p
	}
	if n > chunkBytes {
		return mapBytes(n)
	}
	if arena.chunkLen < n {
		// The rest of the chunk was never touched, so it is as good as
		// handed back: it goes to the cold lists, in the largest spans
		// it holds.
		for k := len(arena.free) - 1; k >= 0; k-- {
			if b := spanBytes(k); arena.chunkLen >= b {
				arena.free[k].cold = append(arena.free[k].cold, arena.chunk)
				arena.chunk, arena.chunkLen = unsafe.Add(arena.chunk, b), arena.chunkLen-b
			}
		}
		arena.chunk, arena.chunkLen = mapBytes(chunkBytes), chunkBytes
	}
	p := arena.chunk
	arena.chunk, arena.chunkLen = unsafe.Add(p, n), arena.chunkLen-n
	return p
}

// pop takes the most recently freed span off a list, nil if it is empty.
func pop(free *[]unsafe.Pointer) unsafe.Pointer {
	k := len(*free)
	if k == 0 {
		return nil
	}
	p := (*free)[k-1]
	*free = (*free)[:k-1]
	return p
}

// mapBytes maps n bytes of anonymous memory; arena.mu is held.
func mapBytes(n int) unsafe.Pointer {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("topk: mapping %d KiB of scan memory: %v", n>>10, err))
	}
	if arena.maps == 0 {
		armSweep()
	}
	arena.maps++
	return unsafe.Pointer(unsafe.SliceData(b))
}

func putSpan(p unsafe.Pointer, c int) {
	arena.mu.Lock()
	arena.free[c].fresh = append(arena.free[c].fresh, p)
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

// sweep hands back the spans of every class idle through two
// collections and ages those released since the last one. The spans
// being handed back are on no free list meanwhile, so no scan can take
// one mid-madvise.
func sweep() {
	var old [spanClasses][]unsafe.Pointer
	arena.mu.Lock()
	for c := range arena.free {
		fl := &arena.free[c]
		old[c] = fl.aged
		fl.aged, fl.fresh = fl.fresh, nil
	}
	arena.mu.Unlock()
	returned := 0
	for c, spans := range old {
		for _, p := range spans {
			// A span the kernel would not take back stays resident and is
			// as good as a returned one; nothing depends on the zeros.
			_ = syscall.Madvise(unsafe.Slice((*byte)(p), spanBytes(c)), syscall.MADV_DONTNEED)
		}
		returned += len(spans) * spanBytes(c)
	}
	arena.mu.Lock()
	for c, spans := range old {
		arena.free[c].cold = append(arena.free[c].cold, spans...)
	}
	arena.resident -= int64(returned)
	arena.returned += returned
	arena.sweeps++
	arena.mu.Unlock()
}

// PageBytes reports the bytes of scan memory the process keeps
// resident: the spans held by scans and region computations (candidate
// table pages, rank orders, core's per-candidate buffers) plus idle ones
// not yet handed back. The heap statistics count none of them.
func PageBytes() int64 {
	arena.mu.Lock()
	defer arena.mu.Unlock()
	return arena.resident
}
