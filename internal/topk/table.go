package topk

import (
	"math"
	"slices"
	"sync"

	"repro/internal/lists"
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
// to rank it, or to share it. Ranking orders positions, not rows (see
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

// rankCutover is the length from which sortRanked ranks by radix: below
// it the comparator's n·log n row reads cost less than the radix passes'
// fixed histograms (on random scores the two meet between 64 and 128
// rows).
const rankCutover = 128

// rankRun is the most positions one radix sort ranks at once; longer
// lists are ranked in runs and the runs merged, so the radix keys take
// 8 B × rankRun whatever the length ranked.
const rankRun = pageRows

// ranker holds the radix keys of one run and the kernel's second key
// buffer. A TA's lives in its pooled scratch; a member view, which ranks
// too but has no scratch, borrows one from rankerPool for the call.
type ranker struct {
	keys, keyBuf [rankRun]uint32
}

var rankerPool = sync.Pool{New: func() any { return new(ranker) }}

// sortRanked sorts positions into rank order and returns buf, grown to
// len(pos) if it was shorter, for the caller to keep. From rankCutover on
// it ranks runs of rankRun positions by radix (radixRun, with buf as the
// kernel's second position buffer) and merges the runs through buf;
// below it, it compares.
func (t *Table) sortRanked(pos, buf []int32, rk *ranker) []int32 {
	if len(pos) < rankCutover {
		t.compareRanked(pos)
		return buf
	}
	if cap(buf) < len(pos) {
		buf = make([]int32, len(pos))
	}
	buf = buf[:len(pos)]
	for lo := 0; lo < len(pos); lo += rankRun {
		hi := min(lo+rankRun, len(pos))
		t.radixRun(pos[lo:hi], buf[lo:hi], rk)
	}
	src, dst := pos, buf
	for w := rankRun; w < len(pos); w *= 2 {
		for lo := 0; lo < len(pos); lo += 2 * w {
			mid, hi := min(lo+w, len(pos)), min(lo+2*w, len(pos))
			if mid == hi {
				copy(dst[lo:hi], src[lo:hi]) // an odd run out: nothing to merge it with
				continue
			}
			t.merge(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &pos[0] {
		copy(pos, src)
	}
	return buf
}

// radixRun ranks one run of at most rankRun positions: the radix kernel
// the bulk load sorts lists with (lists.RadixSort) orders them by the top
// 32 bits of their score's key — four passes, not eight — and the rare
// runs of rows that agree on those are then ranked by comparison.
func (t *Table) radixRun(pos, posBuf []int32, rk *ranker) {
	keys := rk.keys[:len(pos)]
	for i, p := range pos {
		s := t.Score(p)
		if s == 0 {
			s = 0 // -0 ties with +0, as the comparator has it
		}
		keys[i] = uint32(lists.SortKey(s) >> 32)
	}
	lists.RadixSort(keys, pos, rk.keyBuf[:len(pos)], posBuf)
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi] == keys[lo] {
			hi++
		}
		if hi-lo > 1 {
			t.compareRanked(pos[lo:hi])
		}
		lo = hi
	}
}

// merge merges two non-empty ranked lists of positions into dst, holding
// the score and id of each list's head so that every row is read once.
func (t *Table) merge(dst, a, b []int32) {
	i, j := 0, 0
	sa, ia := t.Score(a[0]), t.ID(a[0])
	sb, ib := t.Score(b[0]), t.ID(b[0])
	for w := range dst {
		if sa > sb || sa == sb && ia < ib {
			dst[w] = a[i]
			if i++; i == len(a) {
				copy(dst[w+1:], b[j:])
				return
			}
			sa, ia = t.Score(a[i]), t.ID(a[i])
		} else {
			dst[w] = b[j]
			if j++; j == len(b) {
				copy(dst[w+1:], a[i:])
				return
			}
			sb, ib = t.Score(b[j]), t.ID(b[j])
		}
	}
}

// compareRanked sorts positions into rank order by comparison. The
// comparator is before over the two page directories it needs, loaded
// once.
func (t *Table) compareRanked(pos []int32) {
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
