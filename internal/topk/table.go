package topk

import (
	"math"
	"slices"
	"unsafe"

	"repro/internal/lists"
)

// A page is the unit every column of every candidate table grows by:
// 64 KiB, the arena's smallest span, holding 8192 rows of an 8-byte
// column, 16384 of a 4-byte one and so on. Pages are pointer-free, all
// alike and never resized, so an idle one serves any column of any
// later scan — or goes back to the system at no cost to anyone: nothing
// is ever copied out of a page to make room. getPage takes them and
// ReleaseSpan hands them back (see span.go).
const (
	pageRows  = 1 << 13 // 8-byte rows per page
	pageBytes = 8 * pageRows
)

type page [pageRows]uint64

// A word is what a column holds per row.
type word interface {
	~uint8 | ~uint32 | ~uint64
}

// column holds one attribute of a table's rows at its own width: row p
// is slot p%n of page p/n, n = perPage[T](). Every page is the column's
// own: it drew each one itself, writes only by appending, and hands
// them all back.
type column[T word] struct {
	pages []*page
}

// perPage is the rows a page of a T column holds.
func perPage[T word]() uint32 { return pageBytes / uint32(unsafe.Sizeof(T(0))) }

func (c *column[T]) cell(p int32) *T {
	n := perPage[T]()
	return (*T)(unsafe.Add(unsafe.Pointer(c.pages[uint32(p)/n]), uintptr(uint32(p)%n)*unsafe.Sizeof(T(0))))
}

func (c *column[T]) at(p int32) T { return *c.cell(p) }

// put stores row p's value; p is the row being appended.
func (c *column[T]) put(p int32, v T) {
	if int(uint32(p)/perPage[T]()) == len(c.pages) {
		c.pages = append(c.pages, getPage())
	}
	*c.cell(p) = v
}

// release hands the column's pages back and empties it.
func (c *column[T]) release() {
	for _, pg := range c.pages {
		ReleaseSpan(pg[:])
	}
	c.pages = nil
}

// maskColumn holds the partition masks in the fewest bytes that hold a
// bit per query dimension: 1 << shift per row, 1 up to qlen 8, 8 at
// qlen 64. A row never straddles two pages.
type maskColumn struct {
	column[uint8]
	shift uint
}

// maskShift is the mask width, as a shift, for qlen query dimensions.
func maskShift(qlen int) (shift uint) {
	for 8<<shift < qlen {
		shift++
	}
	return shift
}

func (m *maskColumn) slot(p int32) unsafe.Pointer {
	b := uint(p) << m.shift
	return unsafe.Add(unsafe.Pointer(m.pages[b/pageBytes]), b%pageBytes)
}

func (m *maskColumn) at(p int32) uint64 {
	s := m.slot(p)
	switch m.shift {
	case 0:
		return uint64(*(*uint8)(s))
	case 1:
		return uint64(*(*uint16)(s))
	case 2:
		return uint64(*(*uint32)(s))
	}
	return *(*uint64)(s)
}

// put stores row p's mask; p is the row being appended.
func (m *maskColumn) put(p int32, v uint64) {
	if int(uint(p)<<m.shift/pageBytes) == len(m.pages) {
		m.pages = append(m.pages, getPage())
	}
	switch s := m.slot(p); m.shift {
	case 0:
		*(*uint8)(s) = uint8(v)
	case 1:
		*(*uint16)(s) = uint16(v)
	case 2:
		*(*uint32)(s) = uint32(v)
	default:
		*(*uint64)(s) = v
	}
}

// Table is the candidate table of one scan: the only home of an
// encountered tuple. A row — id, score, partition mask and the qlen
// query-subspace coordinates — is appended once, column by column, into
// pages every scan draws from, and is addressed ever after by its
// position, which never changes: rows are not moved to grow the table
// or to rank it. Ranking orders positions, not rows (see sortRanked).
// An id takes 4 B, a score and a coordinate 8 B each and a mask 1 to
// 8 B: 45 B a row at qlen 4.
type Table struct {
	n     int32
	id    column[uint32]
	score column[uint64]
	mask  maskColumn
	coord []column[uint64] // one per query dimension
}

// newTable returns an empty table for a scan of qlen query dimensions.
func newTable(qlen int) Table {
	return Table{mask: maskColumn{shift: maskShift(qlen)}, coord: make([]column[uint64], qlen)}
}

// add appends a row without a score and returns its position; the caller
// stores the score (a fused scan keeps one score column per member).
func (t *Table) add(id int, mask uint64, proj []float64) int32 {
	p := t.n
	t.id.put(p, uint32(id))
	t.mask.put(p, mask)
	for j, v := range proj {
		t.coord[j].put(p, math.Float64bits(v))
	}
	t.n++
	return p
}

// release hands the table's pages back; its rows are dead.
func (t *Table) release() {
	t.id.release()
	t.score.release()
	t.mask.release()
	for j := range t.coord {
		t.coord[j].release()
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
// lists are ranked in runs and the runs merged, so the radix keys of a
// run and the kernel's second key buffer, 2 × rankRun uint32, take one
// page whatever the length ranked.
const rankRun = pageRows

// sortRanked sorts positions into rank order and returns buf, grown to
// len(pos) from a span if it was shorter, for the caller to reuse and
// hand back (buf is nil or a span, see GrowSpan). From rankCutover on
// it ranks runs of rankRun positions by radix (radixRun, with buf as the
// kernel's second position buffer and the radix keys in a page held for
// the length of the sort) and merges the runs through buf; below it, it
// compares.
func (t *Table) sortRanked(pos, buf []int32) []int32 {
	if len(pos) < rankCutover {
		t.compareRanked(pos)
		return buf
	}
	buf = GrowSpan(buf[:0], len(pos))
	keys := GrowSpan([]uint32(nil), 2*rankRun)
	for lo := 0; lo < len(pos); lo += rankRun {
		hi := min(lo+rankRun, len(pos))
		t.radixRun(pos[lo:hi], buf[lo:hi], keys)
	}
	ReleaseSpan(keys)
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

// radixRun ranks one run of at most rankRun positions the way the bulk
// load ranks its lists: the radix kernel (lists.RadixSort) orders them by
// the top 32 bits of their score's key, and the rare runs of rows that
// agree on those are then ranked by comparison. keys holds 2 × rankRun.
func (t *Table) radixRun(pos, posBuf []int32, keys []uint32) {
	keys, keyBuf := keys[:len(pos)], keys[rankRun:rankRun+len(pos)]
	for i, p := range pos {
		s := t.Score(p)
		if s == 0 {
			s = 0 // -0 ties with +0, as the comparator has it
		}
		keys[i] = uint32(lists.SortKey(s) >> 32)
	}
	lists.RadixSort(keys, pos, keyBuf, posBuf)
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
// comparator is before over the two columns it needs, loaded once.
func (t *Table) compareRanked(pos []int32) {
	scores, ids := t.score, t.id
	slices.SortFunc(pos, func(a, b int32) int {
		sa := math.Float64frombits(scores.at(a))
		sb := math.Float64frombits(scores.at(b))
		switch {
		case sa > sb:
			return -1
		case sa < sb:
			return 1
		}
		return int(int32(ids.at(a))) - int(int32(ids.at(b)))
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
