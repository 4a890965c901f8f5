package topk

import (
	"math"
	"slices"
	"sync"
)

// A page is the unit every column of every candidate table grows by:
// 8192 eight-byte words. Pages are pointer-free, all alike and never
// resized, so an idle one serves any column of any later scan — or is
// dropped by the collector at no cost to anyone: nothing is ever copied
// out of a page to make room.
const (
	pageShift = 13
	pageRows  = 1 << pageShift
	pageMask  = pageRows - 1
)

type page [pageRows]uint64

var pagePool = sync.Pool{New: func() any { return new(page) }}

// column holds one attribute of a table's rows, row p at
// pages[p>>pageShift][p&pageMask]. pages[:own] were drawn by another
// table (the one this column was shared from) and are read-only here;
// pages[own:] are this column's to write and to hand back.
type column struct {
	pages []*page
	own   int
}

func (c *column) at(p int32) uint64 { return c.pages[p>>pageShift][p&pageMask] }

// put stores row p's value; p is the row being appended.
func (c *column) put(p int32, v uint64) {
	i := int(p >> pageShift)
	if i >= len(c.pages) || i < c.own {
		c.grow(i, int(p&pageMask))
	}
	c.pages[i][p&pageMask] = v
}

// grow makes page i writable: a fresh page past the end, or — when the
// append lands in a page another table owns — a private copy of the rows
// that page already holds, so the owner's page is never written.
func (c *column) grow(i, used int) {
	pg := pagePool.Get().(*page)
	if i == len(c.pages) {
		c.pages = append(c.pages, pg)
		return
	}
	copy(pg[:used], c.pages[i][:used])
	c.pages[i] = pg
	c.own = i
}

// share returns a column reading the same pages, none of them its own.
// The page directory is copied: the copy's appends replace entries.
func (c *column) share() column {
	return column{pages: slices.Clone(c.pages), own: len(c.pages)}
}

// release hands the column's own pages back to the pool and empties it,
// keeping the directory's capacity for the next scan.
func (c *column) release() {
	poison := poisonScratch.Load()
	for _, pg := range c.pages[c.own:] {
		if poison {
			for i := range pg {
				pg[i] = ^uint64(0) // id -1, NaN score and coordinate, full mask
			}
		}
		pagePool.Put(pg)
	}
	clear(c.pages)
	c.pages, c.own = c.pages[:0], 0
}

// Table is the candidate table of one scan: the only home of an
// encountered tuple. A row — id, score, partition mask and the qlen
// query-subspace coordinates — is appended once, column by column, into
// pages from the shared pool, and is addressed ever after by its
// position, which never changes: rows are not moved to grow the table,
// to rank it, or to fork it. Ranking orders positions, not rows (see
// ranking). A table taken with share reads its parent's pages and writes
// only its own.
type Table struct {
	n     int32
	id    column
	score column
	mask  column
	coord []column // one per query dimension
}

// reset empties the table for a scan of qlen query dimensions.
func (t *Table) reset(qlen int) {
	t.n = 0
	if cap(t.coord) < qlen {
		t.coord = append(t.coord[:cap(t.coord)], make([]column, qlen-cap(t.coord))...)
	}
	t.coord = t.coord[:qlen]
}

// add appends a row without a score and returns its position; the caller
// stores the score (a fused scan keeps one score column per member).
func (t *Table) add(id int, mask uint64, proj []float64) int32 {
	p := t.n
	t.id.put(p, uint64(id))
	t.mask.put(p, mask)
	for j, v := range proj {
		t.coord[j].put(p, math.Float64bits(v))
	}
	t.n++
	return p
}

// share returns a table over the same rows that appends to pages of its
// own, with score as its score column.
func (t *Table) share(score *column) Table {
	cp := Table{n: t.n, id: t.id.share(), score: score.share(), mask: t.mask.share(),
		coord: make([]column, len(t.coord))}
	for j := range t.coord {
		cp.coord[j] = t.coord[j].share()
	}
	return cp
}

// release returns the table's own pages to the pool; its rows are dead.
func (t *Table) release() {
	t.id.release()
	t.score.release()
	t.mask.release()
	coord := t.coord[:cap(t.coord)]
	for j := range coord {
		coord[j].release()
	}
	t.n = 0
}

// Len returns the number of rows.
func (t *Table) Len() int { return int(t.n) }

// ID returns row p's tuple id.
func (t *Table) ID(p int32) int { return int(int32(t.id.at(p))) }

// Score returns row p's score S(d,q).
func (t *Table) Score(p int32) float64 { return math.Float64frombits(t.score.at(p)) }

// Mask returns row p's partition mask: bit i set when the tuple is
// non-zero on query dimension i.
func (t *Table) Mask(p int32) uint64 { return t.mask.at(p) }

// Coord returns row p's coordinate on query dimension j.
func (t *Table) Coord(p int32, j int) float64 { return math.Float64frombits(t.coord[j].at(p)) }

// before is the rank order, ByRank over row positions: decreasing score,
// ties by ascending id.
func (t *Table) before(a, b int32) bool {
	if sa, sb := t.Score(a), t.Score(b); sa != sb {
		return sa > sb
	}
	return t.ID(a) < t.ID(b)
}

// sortRanked sorts positions into rank order. The comparator is before
// over the two page directories it needs, loaded once: ranking is the
// one place that reads rows n·log n times.
func (t *Table) sortRanked(pos []int32) {
	scores, ids := t.score.pages, t.id.pages
	slices.SortFunc(pos, func(a, b int32) int {
		sa := math.Float64frombits(scores[a>>pageShift][a&pageMask])
		sb := math.Float64frombits(scores[b>>pageShift][b&pageMask])
		switch {
		case sa > sb:
			return -1
		case sa < sb:
			return 1
		}
		return int(int32(ids[a>>pageShift][a&pageMask])) - int(int32(ids[b>>pageShift][b&pageMask]))
	})
}

// Rows materializes the rows at the given positions, in that order, as
// Scored values whose projections share one backing array and alias
// nothing of the table: how rows leave a scan (the k results, a shard's
// contributed lines, Candidates).
func (t *Table) Rows(pos []int32) []Scored {
	qlen := len(t.coord)
	out := make([]Scored, len(pos))
	backing := make([]float64, len(pos)*qlen)
	for i, p := range pos {
		proj := backing[i*qlen : (i+1)*qlen : (i+1)*qlen]
		for j := range proj {
			proj[j] = t.Coord(p, j)
		}
		out[i] = Scored{ID: t.ID(p), Score: t.Score(p), Proj: proj, NZMask: t.Mask(p)}
	}
	return out
}
