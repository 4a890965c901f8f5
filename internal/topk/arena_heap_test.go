//go:build !linux || race

package topk

// offHeapPages is the number of pages tab holds outside the Go heap: none
// on this build, where the heap statistics count every page.
func offHeapPages(*Table) int { return 0 }
