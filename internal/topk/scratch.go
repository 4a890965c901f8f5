package topk

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/lists"
	"repro/internal/storage"
)

// scratch is the working memory of one scan — everything a TA or Multi
// run allocates in proportion to the dataset (the encountered bitset) or
// to the scan depth (the encountered tuples, their projections, the
// per-list bookkeeping). It is recycled across queries through
// scratchPool: New/NewMulti take one, Release hands it back. Nothing in
// it may outlive the run that holds it, so every Scored that leaves for a
// longer-lived holder goes through Compact first.
type scratch struct {
	seen        bitset
	encountered []Scored
	heap        []float64
	scores      []float64 // Multi only: the encounter-major score matrix
	cursors     []lists.Cursor
	last        []storage.Posting
	consumed    []int
	arena       projArena
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getScratch takes a scratch from the pool and resets it for a scan of
// qlen lists over n tuples. Buffers are cleared here, not on release, so
// a released scratch may hold anything (see PoisonScratch).
func getScratch(n, qlen int) *scratch {
	sc := scratchPool.Get().(*scratch)
	words := (n + 63) / 64
	if cap(sc.seen) < words {
		sc.seen = make(bitset, words)
	} else {
		sc.seen = sc.seen[:words]
		clear(sc.seen)
	}
	if cap(sc.cursors) < qlen {
		sc.cursors = make([]lists.Cursor, qlen)
		sc.last = make([]storage.Posting, qlen)
		sc.consumed = make([]int, qlen)
	} else {
		sc.cursors = sc.cursors[:qlen]
		sc.last = sc.last[:qlen]
		sc.consumed = sc.consumed[:qlen]
		clear(sc.last)
		clear(sc.consumed)
	}
	sc.encountered = sc.encountered[:0]
	sc.heap = sc.heap[:0]
	sc.scores = sc.scores[:0]
	sc.arena.reset(qlen)
	return sc
}

// putScratch returns a scratch to the pool. Cursors are dropped so a
// pooled scratch does not pin the finished query's index view.
func putScratch(sc *scratch) {
	clear(sc.cursors)
	if poisonScratch.Load() {
		sc.poison()
	}
	scratchPool.Put(sc)
}

var poisonScratch atomic.Bool

// PoisonScratch makes every scratch returned to the pool get overwritten
// with NaN/-1 first, so a value that still aliases recycled memory turns
// into garbage the bit-identity suites catch. Tests of this package and
// of the layers above it (core, engine, shard) switch it on from
// TestMain; nothing else calls it.
func PoisonScratch(on bool) { poisonScratch.Store(on) }

// ScratchPoisoned reports whether PoisonScratch is on; core's own pooled
// scratch follows the same switch.
func ScratchPoisoned() bool { return poisonScratch.Load() }

func (sc *scratch) poison() {
	nan := math.NaN()
	seen := sc.seen[:cap(sc.seen)]
	for i := range seen {
		seen[i] = ^uint64(0)
	}
	enc := sc.encountered[:cap(sc.encountered)]
	for i := range enc {
		enc[i] = Scored{ID: -1, Score: nan, NZMask: ^uint64(0)}
	}
	last, consumed := sc.last[:cap(sc.last)], sc.consumed[:cap(sc.consumed)]
	for i := range last {
		last[i] = storage.Posting{ID: -1, Val: nan}
		consumed[i] = -1
	}
	floats := append([][]float64{sc.heap[:cap(sc.heap)], sc.scores[:cap(sc.scores)]}, sc.arena.chunks...)
	for _, fs := range floats {
		for i := range fs {
			fs[i] = nan
		}
	}
}

// projArena hands out qlen-sized projection slices carved from
// fixed-size chunks, replacing one heap allocation per projected tuple
// with one per chunk. Slices stay valid after further allocs (chunks are
// never reallocated). Chunks are independent of qlen, so a recycled
// arena serves any query; reset rewinds it without freeing them. The
// slices are NOT zeroed: every caller fills all qlen entries
// (vec.Query.ProjectInto). The zero value with qlen set is ready to use.
type projArena struct {
	qlen   int
	chunks [][]float64
	next   int       // chunks[next:] are unused
	free   []float64 // uncarved tail of chunks[next-1]
}

// arenaChunkFloats is 8 KiB of projections: 256 tuples at qlen 4, 16 at
// the qlen ceiling of 64.
const arenaChunkFloats = 1024

func (a *projArena) reset(qlen int) {
	a.qlen = qlen
	a.next = 0
	a.free = nil
}

func (a *projArena) alloc() []float64 {
	if len(a.free) < a.qlen {
		if a.next == len(a.chunks) {
			a.chunks = append(a.chunks, make([]float64, arenaChunkFloats))
		}
		a.free = a.chunks[a.next]
		a.next++
	}
	p := a.free[:a.qlen:a.qlen]
	a.free = a.free[a.qlen:]
	return p
}

// Compact returns a deep copy of s whose projections share one
// len(s)×qlen backing array: two allocations regardless of len(s), and no
// reference into the scan that produced s. It is how a result (or any
// Scored list) leaves a run for a holder that outlives it.
func Compact(s []Scored) []Scored {
	if s == nil {
		return nil
	}
	total := 0
	for i := range s {
		total += len(s[i].Proj)
	}
	out := make([]Scored, len(s))
	backing := make([]float64, total)
	for i, sc := range s {
		n := copy(backing, sc.Proj)
		sc.Proj = backing[:n:n]
		backing = backing[n:]
		out[i] = sc
	}
	return out
}
