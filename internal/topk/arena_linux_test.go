//go:build linux && !race

package topk

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/lists"
	"repro/internal/obs"
	"repro/internal/vec"
)

// offHeapBytes is the bytes ta holds outside the Go heap: its table
// pages and the spans of its encountered set and rank order.
func offHeapBytes(ta *TA) int {
	pages := len(ta.rows.id.pages) + len(ta.rows.score.pages) + len(ta.rows.mask.pages)
	for _, c := range ta.rows.coord {
		pages += len(c.pages)
	}
	return pages*pageBytes + 8*cap(ta.seen) + 4*cap(ta.order)
}

// arenaCounts reads the arena's test counters: chunks mapped, bytes
// handed back, sweeps completed.
func arenaCounts() (chunks, returned, sweeps int) {
	arena.mu.Lock()
	defer arena.mu.Unlock()
	return arena.chunks, arena.returned, arena.sweeps
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

// TestIdlePagesReturnToOS: a released buffer leaves the gauge and the
// resident set at once, with no collection; the pages of a released
// scan go back to the kernel only once they have been idle through two
// collections — the gauge then reads 0 and every byte of them was
// madvised — and a later scan takes them from the chunks already
// mapped, without a new one.
func TestIdlePagesReturnToOS(t *testing.T) {
	const n, qlen = 50_000, 4
	tuples, q := denseCase(rand.New(rand.NewSource(35)), n, qlen, 1<<20)
	ix := lists.NewMemIndex(tuples, qlen)
	const bigLen = 2 * chunkBytes // float64s: a 16 MiB buffer
	scan := func() (*TA, []float64) {
		ta := New(ix, q, 10, BestList)
		mustRun(t, ta)
		exhaust(ta)
		ta.Ranking()
		big := GrowSpan([]float64(nil), bigLen)
		for i := range big {
			big[i] = 1 // resident, every page of it
		}
		return ta, big
	}
	drainArena(t)

	ta, big := scan()
	tablePages := 0
	for _, perPage := range []int{pageBytes / 4, pageBytes / 8, pageBytes} { // id, score, mask
		tablePages += (n + perPage - 1) / perPage
	}
	tablePages += qlen * ((n + pageRows - 1) / pageRows)
	scanPages := tablePages + 1 // and the encountered set: n bits in one page
	held := offHeapBytes(ta) + 8*cap(big)
	if want := scanPages*pageBytes + 4*cap(ta.order) + 8*bigLen; held != want {
		t.Fatalf("a scan of %d rows and a big buffer hold %d B, want %d", n, held, want)
	}
	if now, _ := HeldBytes(); int(now) != held {
		t.Fatalf("HeldBytes reads %d B, the scan and the buffer hold %d B", now, held)
	}
	// The gauge counts the pages the scan drew and let go too: idle, not
	// yet handed back.
	idle := int(PageBytes()) - held
	if idle < 0 || idle%pageBytes != 0 {
		t.Fatalf("gauge reads %d B, the scan and the buffer hold %d B", PageBytes(), held)
	}

	anon := obs.ProcStatusBytes("RssAnon")
	ReleaseSpan(big)
	if got := int(PageBytes()); got != held+idle-8*bigLen {
		t.Fatalf("gauge reads %d B after the buffer's release, want %d", got, held+idle-8*bigLen)
	}
	if drop := anon - obs.ProcStatusBytes("RssAnon"); drop < 0.9*8*bigLen {
		t.Fatalf("RssAnon fell by %.0f B when a %d B buffer was released, want nearly all of it", drop, 8*bigLen)
	}

	chunks, returned, sweeps := arenaCounts()
	ta.Release()
	if got, want := int(PageBytes()), scanPages*pageBytes+idle; got != want {
		t.Fatalf("gauge reads %d B after the scan's release, want its %d B of idle pages", got, want)
	}
	collect(t)
	if _, r, s := arenaCounts(); s == sweeps+1 && r != returned {
		t.Fatalf("%d B handed back after one collection; pages wait out two", r-returned)
	}
	collect(t)
	collect(t)
	if got := PageBytes(); got != 0 {
		t.Fatalf("gauge reads %d B after three collections, want 0", got)
	}
	if _, r, _ := arenaCounts(); r-returned != scanPages*pageBytes+idle {
		t.Fatalf("%d B handed back to the kernel, want the %d B of idle pages", r-returned, scanPages*pageBytes+idle)
	}

	ta, big = scan()
	ta.Release()
	ReleaseSpan(big)
	if c, _, _ := arenaCounts(); c != chunks {
		t.Fatalf("the second scan mapped %d chunks, want 0", c-chunks)
	}
}

// TestArenaHandsOutEachPageOnce: goroutines take, fill, check and hand
// back spans — pages and buffers of up to five pages — while
// collections sweep the free lists underneath them; a page handed to two
// holders at once, or madvised while held, shows up as a word its holder
// did not write. Every 64th word is written: spans overlap, if at all,
// by whole pages.
func TestArenaHandsOutEachPageOnce(t *testing.T) {
	const workers, rounds, held, sizes, stride = 4, 400, 6, 6, 64
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
					size := (w + r + i) % sizes
					spans[i] = GrowSpan([]uint64(nil), size*pageRows+100*size+1)
					for j := 0; j < len(spans[i]); j += stride {
						spans[i][j] = mark
					}
				}
				runtime.Gosched()
				for i, s := range spans {
					for j := 0; j < len(s); j += stride {
						if s[j] != mark {
							errs <- fmt.Errorf("worker %d round %d span %d (%d B): read %#x, wrote %#x", w, r, i, 8*cap(s), s[j], mark)
							return
						}
					}
					ReleaseSpan(s)
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
