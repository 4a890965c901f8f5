//go:build !linux || race

package topk

// offHeapBytes is the bytes ta holds outside the Go heap: none on this
// build, where the heap statistics count every page and span.
func offHeapBytes(*TA) int { return 0 }
