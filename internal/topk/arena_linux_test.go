//go:build linux && !race

package topk

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/lists"
	"repro/internal/vec"
)

// offHeapBytes is the bytes ta holds outside the Go heap: its table
// pages and the spans of its rank order.
func offHeapBytes(ta *TA) int {
	n := 0
	for _, c := range append([]column{ta.rows.id, ta.rows.score, ta.rows.mask}, ta.rows.coord...) {
		n += len(c.pages) * pageBytes
	}
	return n + 4*cap(ta.order) + 4*cap(ta.tail)
}

// arenaCounts reads the arena's test counters: mappings made, bytes
// handed back, sweeps completed.
func arenaCounts() (maps, returned, sweeps int) {
	arena.mu.Lock()
	defer arena.mu.Unlock()
	return arena.maps, arena.returned, arena.sweeps
}

// collect runs collections until the arena has swept once more: the sweep
// runs on the finalizer goroutine, after the collection that triggered it.
func collect(t *testing.T) {
	t.Helper()
	_, _, swept := arenaCounts()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		for range 100 {
			if _, _, s := arenaCounts(); s > swept {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	t.Fatal("the arena did not sweep after a collection")
}

// drainArena collects until every span is back with the kernel, those
// earlier tests left idle or dropped unreleased included.
func drainArena(t *testing.T) {
	t.Helper()
	for i := 0; PageBytes() != 0; i++ {
		if i == 10 {
			t.Fatalf("%d B of spans still resident after %d sweeps", PageBytes(), i)
		}
		collect(t)
	}
}

// TestIdlePagesReturnToOS: the pages and spans of a released scan, and a
// span larger than a chunk, go back to the kernel once they have been
// idle through two collections — the gauge then reads 0 and every byte
// of them was madvised — and a later scan takes them from the mappings
// already made, without a new one.
func TestIdlePagesReturnToOS(t *testing.T) {
	const n, qlen = 50_000, 4
	tuples, q := denseCase(rand.New(rand.NewSource(35)), n, qlen, 1<<20)
	ix := lists.NewMemIndex(tuples, qlen)
	const bigLen = chunkBytes/8 + 1 // float64s: just over a chunk, so a 2 MiB span mapped whole
	scan := func() (*TA, []float64) {
		ta := New(ix, q, 10, BestList)
		mustRun(t, ta)
		exhaust(ta)
		ta.Ranking()
		return ta, GrowSpan([]float64(nil), bigLen)
	}
	drainArena(t)

	ta, big := scan()
	held := offHeapBytes(ta) + 8*cap(big)
	if want := (3+qlen)*((n+pageRows-1)/pageRows)*pageBytes + 4*cap(ta.order) + 4*cap(ta.tail) + 2*chunkBytes; held != want {
		t.Fatalf("a scan of %d rows and a big span hold %d B, want %d", n, held, want)
	}
	// The gauge counts the spans the rank order outgrew too: idle, not
	// yet handed back.
	resident := int(PageBytes())
	if resident < held || resident > held+4*cap(ta.order)+4*cap(ta.tail) {
		t.Fatalf("gauge reads %d B, the scan and the span hold %d B", resident, held)
	}
	maps, returned, _ := arenaCounts()
	ta.Release()
	ReleaseSpan(big)
	for range 3 {
		collect(t)
	}
	if got := PageBytes(); got != 0 {
		t.Fatalf("gauge reads %d B after three collections, want 0", got)
	}
	if _, r, _ := arenaCounts(); r-returned != resident {
		t.Fatalf("%d B handed back to the kernel, want the %d B resident", r-returned, resident)
	}

	ta, big = scan()
	ta.Release()
	ReleaseSpan(big)
	if m, _, _ := arenaCounts(); m != maps {
		t.Fatalf("the second scan mapped %d times, want 0", m-maps)
	}
}

// TestArenaHandsOutEachPageOnce: goroutines take, fill, check and hand
// back spans of every class up to twice a chunk — pages, spans carved
// from chunks, spans mapped whole — while collections sweep the free
// lists underneath them; a span handed to two holders at once, or
// madvised while held, shows up as a word its holder did not write.
// Every 64th word is written: spans overlap, if at all, by whole pages.
func TestArenaHandsOutEachPageOnce(t *testing.T) {
	const workers, rounds, held, classes, stride = 4, 400, 6, 6, 64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				runtime.GC()
			}
		}
	}()
	errs := make(chan error, workers)
	for w := range workers {
		go func() {
			var spans [held][]uint64
			for r := range rounds {
				mark := uint64(w)<<32 | uint64(r)
				for i := range spans {
					c := (w + r + i) % classes
					spans[i] = unsafe.Slice((*uint64)(getSpan(c)), spanBytes(c)/8)
					for j := 0; j < len(spans[i]); j += stride {
						spans[i][j] = mark
					}
				}
				runtime.Gosched()
				for i, s := range spans {
					for j := 0; j < len(s); j += stride {
						if s[j] != mark {
							errs <- fmt.Errorf("worker %d round %d span %d (%d B): read %#x, wrote %#x", w, r, i, 8*len(s), s[j], mark)
							return
						}
					}
					putSpan(unsafe.Pointer(unsafe.SliceData(s)), spanClass(8*len(s)))
				}
			}
			errs <- nil
		}()
	}
	for range workers {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	<-stopped
}

// TestDroppedScansReturnPages: scans dropped without Release — a TA as
// the benchmark's traced ladder drops its probes, and a fused run — hand
// their pages back once the collector finds them unreachable; the arena
// would keep them for the life of the process otherwise.
func TestDroppedScansReturnPages(t *testing.T) {
	tuples, q := denseCase(rand.New(rand.NewSource(36)), 20_000, 3, 1<<20)
	ix := lists.NewMemIndex(tuples, 3)
	drainArena(t)
	func() {
		ta := New(ix, q, 10, BestList)
		mustRun(t, ta)
		exhaust(ta)
	}()
	func() {
		m := NewMulti(ix, []vec.Query{q, q}, 10, BestList)
		mustRun(t, m)
	}()
	drainArena(t)
}
