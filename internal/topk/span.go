package topk

import (
	"fmt"
	"sync/atomic"
	"unsafe"
)

// A span is what the page arena hands out: pointer-free memory in which
// a scan and the region computation over it hold their per-query state
// — the encountered set, the candidate table's pages, the rank order and
// the radix keys that produce it, core's memo and candidate-set columns
// — instead of the Go heap, where GOGC would count it twice. A query
// takes its spans when it needs them and hands them back when done: the
// arena is the one place scan memory comes from and goes back to.
//
// A span of up to pageBytes is a page. Pages are all alike: a released
// one goes on the arena's free list, where the next scan takes it, and
// one idle through two collections goes back to the system. A larger
// span is a buffer of whole bufAlign units, sized to what it holds; a
// released buffer leaves the resident set at once, so the deepest
// query's buffers never wait for a later one. allocPage, freePage,
// allocBuffer and freeBuffer are the two builds' arenas (arena_linux.go,
// arena_heap.go).

// bufAlign is the unit a buffer is sized in: the page the kernel maps.
const bufAlign = 4 << 10

// spanBytes is the size of the span that holds n > 0 bytes.
func spanBytes(n int) int {
	if n <= pageBytes {
		return pageBytes
	}
	return (n + bufAlign - 1) &^ (bufAlign - 1)
}

// Elem is what a span may hold: pointer-free, so no collector ever needs
// to see the memory.
type Elem interface {
	~int32 | ~uint32 | ~uint64 | ~float64
}

// GrowSpan returns s with length n, its first len(s) elements kept, so
// GrowSpan(s[:0], n) resizes and GrowSpan(s, n) extends. When cap(s) < n
// the elements move to a span large enough for n and s's own span goes
// back to the arena: s must be nil or a slice GrowSpan returned, never a
// heap slice. A resize takes the span n needs; an extension grows by a
// quarter at least, so a buffer extended step by step is copied a
// logarithmic number of times. Elements past len(s) are unspecified; a
// span fresh from the arena may hold anything (see PoisonScratch).
func GrowSpan[T Elem](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	size := int(unsafe.Sizeof(*new(T)))
	b := spanBytes(max(n, len(s)+len(s)/4) * size)
	var p unsafe.Pointer
	if b == pageBytes {
		p = unsafe.Pointer(getPage())
	} else {
		hold(b)
		p = allocBuffer(b)
	}
	t := unsafe.Slice((*T)(p), b/size)
	copy(t, s)
	ReleaseSpan(s)
	return t[:n]
}

// ReleaseSpan hands the span behind s back to the arena; s and every
// slice of it are dead afterwards. A nil s is a no-op. Under
// PoisonScratch the span is overwritten first — NaN or all ones in every
// element — so a use after the hand-back breaks the bit-identity suites
// (where a released buffer is unmapped, such a use faults).
func ReleaseSpan[T Elem](s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	n := len(s) * int(unsafe.Sizeof(s[0]))
	if spanBytes(n) != n {
		panic(fmt.Sprintf("topk: releasing a %d B slice that is no span", n))
	}
	p := unsafe.Pointer(unsafe.SliceData(s))
	if poisonScratch.Load() {
		w := unsafe.Slice((*uint64)(p), n/8) // a span is whole 4 KiB units
		for i := range w {
			w[i] = ^uint64(0) // -1 and NaN
		}
	}
	hold(-n)
	if n == pageBytes {
		freePage(p)
	} else {
		freeBuffer(p, n)
	}
}

func getPage() *page {
	hold(pageBytes)
	return (*page)(allocPage())
}

var poisonScratch atomic.Bool

// PoisonScratch makes every span handed back to the arena — table pages
// included — get overwritten with all ones first (NaN, -1), so a value
// that still aliases released scan memory turns into garbage the
// bit-identity suites catch. Tests of this package and of the layers
// above it (core, engine, shard) switch it on from TestMain; nothing else
// calls it.
func PoisonScratch(on bool) { poisonScratch.Store(on) }

// held is the bytes of spans handed out and not yet released; heldPeak
// is its high-water mark since HeldBytes last read it.
var held, heldPeak atomic.Int64

func hold(n int) {
	h := held.Add(int64(n))
	for p := heldPeak.Load(); h > p && !heldPeak.CompareAndSwap(p, h); p = heldPeak.Load() {
	}
}

// HeldBytes reports the bytes of scan memory that running scans and
// region computations hold now — what PageBytes counts, less the idle
// pages not yet handed back — and the most they held at once since the
// previous call, which starts a new watermark. Admitting queries by the
// memory their scans take would count these bytes.
func HeldBytes() (now, peak int64) {
	now = held.Load()
	return now, max(heldPeak.Swap(now), now)
}
