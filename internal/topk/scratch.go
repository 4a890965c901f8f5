package topk

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/lists"
	"repro/internal/storage"
)

// scratch is the working memory of one scan apart from its rows — the
// part a TA or Multi run allocates in proportion to the dataset (the
// encountered bitset) or keeps in one piece (the 4-byte rank order, the
// page directories of the candidate table, the per-list bookkeeping). It
// is recycled across queries through scratchPool: New/NewMulti take one,
// Release hands it back. The rows themselves live in pooled pages (see
// Table), which a release returns one by one: no scratch carries the
// deepest query's rows around.
type scratch struct {
	seen     bitset
	rows     Table    // directories only: a pooled scratch holds no page
	scores   []column // Multi only: one score column per member
	order    []int32
	tail     []int32
	rank     *ranker // allocated by the first TA that takes this scratch
	heap     []float64
	proj     []float64
	cursors  []lists.Cursor
	last     []storage.Posting
	consumed []int
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
	sc.rows.reset(qlen)
	sc.order, sc.tail, sc.heap = sc.order[:0], sc.tail[:0], sc.heap[:0]
	if cap(sc.proj) < qlen {
		sc.proj = make([]float64, qlen)
	}
	sc.proj = sc.proj[:qlen]
	return sc
}

// putScratch returns a scratch to the pool. Cursors are released (their
// page buffers go back to theirs) and dropped, so a pooled scratch does
// not pin the finished query's index view.
func putScratch(sc *scratch) {
	for _, c := range sc.cursors {
		if c != nil {
			c.Release()
		}
	}
	clear(sc.cursors)
	if poisonScratch.Load() {
		sc.poison()
	}
	scratchPool.Put(sc)
}

var poisonScratch atomic.Bool

// PoisonScratch makes every scratch and every table page returned to its
// pool get overwritten with NaN/-1 first, so a value that still aliases
// recycled memory turns into garbage the bit-identity suites catch. Tests of this package and
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
	for _, ps := range [][]int32{sc.order[:cap(sc.order)], sc.tail[:cap(sc.tail)]} {
		for i := range ps {
			ps[i] = -1
		}
	}
	last, consumed := sc.last[:cap(sc.last)], sc.consumed[:cap(sc.consumed)]
	for i := range last {
		last[i] = storage.Posting{ID: -1, Val: nan}
		consumed[i] = -1
	}
	for _, fs := range [][]float64{sc.heap[:cap(sc.heap)], sc.proj[:cap(sc.proj)]} {
		for i := range fs {
			fs[i] = nan
		}
	}
}

// Compact returns a deep copy of s whose projections share one
// len(s)×qlen backing array: two allocations regardless of len(s), and no
// reference into whatever produced s. It is how a Scored list is handed
// to a holder that must own it.
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
