package topk

import (
	"fmt"
	"math/bits"
	"unsafe"
)

// A span is a power-of-two run of bytes from the page arena: class c
// holds pageBytes << c, so a table page is a class-0 span. Spans hold
// no pointers. They are how a scan and the region computation over it
// hold their per-candidate buffers — the rank order, core's memo and
// candidate-set columns — without putting them on the Go heap, where
// GOGC would count them twice and a pooled owner would keep the deepest
// query's size. getSpan and putSpan take and return them (see
// arena_linux.go and arena_heap.go).
const spanClasses = 20 // the largest span is pageBytes << 19: 32 GiB

// spanBytes is the size of a class-c span.
func spanBytes(c int) int { return pageBytes << c }

// spanClass is the smallest class whose span holds n > 0 bytes.
func spanClass(n int) int {
	c := bits.Len(uint(n-1) / pageBytes)
	if c >= spanClasses {
		panic(fmt.Sprintf("topk: a span of %d B exceeds the arena's largest", n))
	}
	return c
}

// Elem is what a span may hold: pointer-free, so no collector ever needs
// to see the memory.
type Elem interface {
	~int32 | ~uint32 | ~float64 | ~bool
}

// GrowSpan returns s with length n, its first len(s) elements kept, so
// GrowSpan(s[:0], n) resizes and GrowSpan(s, n) extends. When cap(s) < n
// the elements move to a span large enough for n and s's own span goes
// back to the arena: s must be nil or a slice GrowSpan returned, never a
// heap slice. Elements past len(s) are unspecified; a span fresh from
// the arena may hold anything (see PoisonScratch).
func GrowSpan[T Elem](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	size := int(unsafe.Sizeof(*new(T)))
	c := spanClass(n * size)
	t := unsafe.Slice((*T)(getSpan(c)), spanBytes(c)/size)
	copy(t, s)
	ReleaseSpan(s)
	return t[:n]
}

// ReleaseSpan hands the span behind s back to the arena; s and every
// slice of it are dead afterwards. A nil s is a no-op. Under
// PoisonScratch the span is overwritten first — NaN, -1 or true in every
// element — so a use after the hand-back breaks the bit-identity suites.
func ReleaseSpan[T Elem](s []T) {
	if cap(s) == 0 {
		return
	}
	s = s[:cap(s)]
	n := len(s) * int(unsafe.Sizeof(s[0]))
	c := spanClass(n)
	if spanBytes(c) != n {
		panic(fmt.Sprintf("topk: releasing a %d B slice that is no span", n))
	}
	p := unsafe.Pointer(unsafe.SliceData(s))
	if poisonScratch.Load() {
		fill := byte(0xff) // -1 and NaN
		var zero T
		if _, ok := any(zero).(bool); ok {
			fill = 1
		}
		b := unsafe.Slice((*byte)(p), n)
		for i := range b {
			b[i] = fill
		}
	}
	putSpan(p, c)
}

func getPage() *page { return (*page)(getSpan(0)) }

func putPage(pg *page) { putSpan(unsafe.Pointer(pg), 0) }
