//go:build linux && !race

package topk

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/lists"
	"repro/internal/vec"
)

// offHeapPages is the number of pages tab holds outside the Go heap.
func offHeapPages(tab *Table) int {
	n := 0
	for _, c := range append([]column{tab.id, tab.score, tab.mask}, tab.coord...) {
		n += len(c.pages)
	}
	return n
}

// arenaCounts reads the arena's test counters.
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

// drainArena collects until every table page is back with the kernel,
// those earlier tests left idle or dropped unreleased included.
func drainArena(t *testing.T) {
	t.Helper()
	for i := 0; PageBytes() != 0; i++ {
		if i == 10 {
			t.Fatalf("%d B of table pages still resident after %d sweeps", PageBytes(), i)
		}
		collect(t)
	}
}

// TestIdlePagesReturnToOS: the pages of a released scan go back to the
// kernel once they have been idle through two collections — the gauge
// then reads 0 and every one of them was madvised — and a later scan
// takes pages from the chunks already mapped, without a new mapping.
func TestIdlePagesReturnToOS(t *testing.T) {
	const n, qlen = 50_000, 4
	tuples, q := denseCase(rand.New(rand.NewSource(35)), n, qlen, 1<<20)
	ix := lists.NewMemIndex(tuples, qlen)
	scan := func() *TA {
		ta := New(ix, q, 10, BestList)
		mustRun(t, ta)
		exhaust(ta)
		return ta
	}
	drainArena(t)

	ta := scan()
	pages := int(PageBytes() / pageBytes)
	if want := (3 + qlen) * ((n + pageRows - 1) / pageRows); pages != want {
		t.Fatalf("a scan of %d rows holds %d pages, want %d", n, pages, want)
	}
	maps, returned, _ := arenaCounts()
	ta.Release()
	for range 3 {
		collect(t)
	}
	if got := PageBytes(); got != 0 {
		t.Fatalf("gauge reads %d B after three collections, want 0", got)
	}
	if _, r, _ := arenaCounts(); r-returned != pages {
		t.Fatalf("%d pages handed back to the kernel, want the scan's %d", r-returned, pages)
	}

	scan().Release()
	if m, _, _ := arenaCounts(); m != maps {
		t.Fatalf("the second scan mapped %d new chunks, want 0", m-maps)
	}
}

// TestArenaHandsOutEachPageOnce: goroutines take, fill, check and hand
// back pages while collections sweep the free lists underneath them; a
// page handed to two holders at once, or madvised while held, shows up
// as a word its holder did not write.
func TestArenaHandsOutEachPageOnce(t *testing.T) {
	const workers, rounds, held = 4, 400, 6
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
			var pages [held]*page
			for r := range rounds {
				mark := uint64(w)<<32 | uint64(r)
				for i := range pages {
					pages[i] = getPage()
					for j := range pages[i] {
						pages[i][j] = mark
					}
				}
				runtime.Gosched()
				for i, pg := range pages {
					for _, v := range pg {
						if v != mark {
							errs <- fmt.Errorf("worker %d round %d page %d: read %#x, wrote %#x", w, r, i, v, mark)
							return
						}
					}
					putPage(pg)
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
