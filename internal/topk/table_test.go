package topk

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/lists"
	"repro/internal/vec"
)

// denseCase builds n tuples non-zero on every one of qlen dimensions, so
// a scan run to exhaustion encounters exactly n rows. Coordinates come
// from a grid of the given size: a small grid makes score ties common.
func denseCase(rng *rand.Rand, n, qlen, grid int) ([]vec.Sparse, vec.Query) {
	tuples := make([]vec.Sparse, n)
	for i := range tuples {
		t := make(vec.Sparse, qlen)
		for d := range t {
			t[d] = vec.Entry{Dim: d, Val: float64(1+rng.Intn(grid)) / float64(grid)}
		}
		tuples[i] = t
	}
	dims, weights := make([]int, qlen), make([]float64, qlen)
	for d := range dims {
		dims[d], weights[d] = d, float64(1+rng.Intn(4))/4
	}
	return tuples, vec.MustQuery(dims, weights)
}

// exhaust resumes the scan until the lists run dry.
func exhaust(v interface{ Resume() (int32, bool) }) {
	for {
		if _, ok := v.Resume(); !ok {
			return
		}
	}
}

// TestScanAllocatesLinearly: from cold pools, a scan that encounters E
// tuples allocates its rows once — heap bytes plus the arena pages and
// spans it draws come to at most 1.25 × E × row bytes (a 4 B id, an
// 8 B score, a 1 B mask and 8 B per coordinate), plus one page of
// slack per column — because a page is never copied to grow. (Contiguous
// slices grown by append allocate about five times the final size on the
// way there.) The bound covers everything the run allocates besides: the
// rank order, the bitset, cursors, the result. Where the arena lives
// outside the heap, the heap holds nothing per row or per tuple: the
// rank order, the encountered set and the radix keys are arena bytes too.
func TestScanAllocatesLinearly(t *testing.T) {
	const n, qlen, k = 50_000, 4, 10
	tuples, q := denseCase(rand.New(rand.NewSource(31)), n, qlen, 1<<20)
	ix := lists.NewMemIndex(tuples, qlen)
	// Two collections empty every sync.Pool, victim caches included.
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ta := New(ix, q, k, BestList)
	mustRun(t, ta)
	exhaust(ta)
	order, cut := ta.Ranking()
	runtime.ReadMemStats(&after)
	drawn := offHeapBytes(ta)
	if ta.Table().Len() != n || len(order) != n || cut != k {
		t.Fatalf("scan holds %d rows, ranks %d, cut %d; want %d, %d, %d", ta.Table().Len(), len(order), cut, n, n, k)
	}
	ta.Release()

	const columns = 3 + qlen // id, score, mask, coordinates
	rowBytes := 4 + 8 + 1 + 8*qlen
	heap := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d rows: %d heap bytes, %d arena bytes", n, heap, drawn)
	bound := uint64(1.25*float64(n*rowBytes)) + columns*pageBytes
	if got := heap + uint64(drawn); got > bound {
		t.Fatalf("scan of %d rows × %d B allocated %d B, bound %d", n, rowBytes, got, bound)
	}
	// The cursors, the per-list bookkeeping and the result are all the
	// heap keeps; one byte per row would exceed this.
	if drawn > 0 && heap > 32<<10 {
		t.Fatalf("scan of %d rows allocated %d heap bytes besides its %d B of arena memory", n, heap, drawn)
	}
}

// rankedRef is the reference ranking: one full sort of the candidate
// rows by (score desc, id asc), over materialized copies.
func rankedRef(rows []Scored, cands []int32) []int32 {
	ref := slices.Clone(cands)
	slices.SortFunc(ref, func(a, b int32) int {
		switch ra, rb := rows[a], rows[b]; {
		case ra.Score > rb.Score:
			return -1
		case ra.Score < rb.Score:
			return 1
		default:
			return ra.ID - rb.ID
		}
	})
	return ref
}

func allPositions(n int) []int32 {
	pos := make([]int32, n)
	for p := range pos {
		pos[p] = int32(p)
	}
	return pos
}

func sameRow(a, b Scored) bool {
	return a.ID == b.ID && a.Score == b.Score && a.NZMask == b.NZMask && slices.Equal(a.Proj, b.Proj)
}

// TestRankingMergesTails: a row's position never changes — what a
// position held before a Resume it holds after, across page boundaries —
// the result stays frozen, and the candidate order after merging any
// number of pulled tails is exactly one full sort's, ties included. Runs
// under scratch poisoning (TestMain), with a second scan recycling pages
// in between.
func TestRankingMergesTails(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 6; trial++ {
		n := 9_000 + rng.Intn(12_000) // the table crosses one or two page boundaries
		tuples, q := denseCase(rng, n, 3, 6)
		ix := lists.NewMemIndex(tuples, 3)
		ta := New(ix, q, 1+rng.Intn(8), BestList)
		mustRun(t, ta)
		order, cut := ta.Ranking()
		result := slices.Clone(order[:cut])
		known := ta.Table().Rows(allPositions(ta.Table().Len()))
		for round := 0; ; round++ {
			pulls, dry := 1+rng.Intn(3000), false
			for i := 0; i < pulls && !dry; i++ {
				p, ok := ta.Resume()
				if dry = !ok; ok && int(p) != len(known)+i {
					t.Fatalf("trial %d: pull landed at position %d, want %d", trial, p, len(known)+i)
				}
			}
			// Someone else's scan takes and returns pages meanwhile.
			other := New(ix, q, 3, RoundRobin)
			mustRun(t, other)
			other.Release()

			rows := ta.Table().Rows(allPositions(ta.Table().Len()))
			for p := range known {
				if !sameRow(known[p], rows[p]) {
					t.Fatalf("trial %d round %d: position %d held %+v, now %+v", trial, round, p, known[p], rows[p])
				}
			}
			known = rows
			order, cut = ta.Ranking()
			if !slices.Equal(order[:cut], result) {
				t.Fatalf("trial %d round %d: result positions moved", trial, round)
			}
			cands := allPositions(len(rows))
			cands = slices.DeleteFunc(cands, func(p int32) bool { return slices.Contains(result, p) })
			if want := rankedRef(rows, cands); !slices.Equal(order[cut:], want) {
				t.Fatalf("trial %d round %d: merged order differs from a full sort of %d candidates", trial, round, len(want))
			}
			if dry {
				if len(rows) != n {
					t.Fatalf("trial %d: exhausted at %d rows of %d", trial, len(rows), n)
				}
				break
			}
		}
		ta.Release()
	}
}

// TestRadixRankIsCompareRank: sortRanked ranks exactly as the comparator
// does — on scores from a coarse grid, where most rows tie and the tied
// rows arrive out of id order, with -0 among them and with neighbours a
// few ulps apart (equal on the 32 bits the radix passes see); on lists
// just below, at and above rankCutover; on one, two and an odd number
// of radix runs; and on tails that start and end inside pages of a table
// several pages long. What it returns is a merge buffer at least as long
// as the list.
func TestRadixRankIsCompareRank(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	tab := newTable(1)
	const rows = 3*pageRows + 500
	for _, id := range rng.Perm(rows) {
		score := float64(rng.Intn(40)) / 8
		switch {
		case score == 0 && rng.Intn(2) == 0:
			score = math.Copysign(0, -1)
		case score > 0 && rng.Intn(3) == 0:
			score = math.Float64frombits(math.Float64bits(score) + uint64(rng.Intn(4)))
		}
		p := tab.add(id, 1, []float64{score})
		tab.score.put(p, math.Float64bits(score))
	}
	sizes := []int{rankCutover - 1, rankCutover, rankCutover + 1, 1000,
		rankRun - 1, rankRun, rankRun + 1, 2*rankRun + 7, 3 * rankRun, rows - 1}
	var buf []int32
	for trial, size := range sizes {
		from := rng.Intn(rows - size + 1)
		pos := make([]int32, size)
		for i := range pos {
			pos[i] = int32(from + i)
		}
		rng.Shuffle(size, func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
		want := slices.Clone(pos)
		tab.compareRanked(want)
		buf = tab.sortRanked(pos, buf)
		if !slices.Equal(pos, want) {
			t.Fatalf("trial %d: radix ranking of rows [%d,%d) differs from the comparator's", trial, from, from+size)
		}
		if size >= rankCutover && len(buf) < size {
			t.Fatalf("trial %d: merge buffer of %d for %d rows", trial, len(buf), size)
		}
	}
	tab.release()
}

// TestMaskColumnWidths: the partition mask takes the fewest bytes that
// hold qlen bits — 1 up to qlen 8, 2, 4, then 8 at qlen 64 — and every
// width stores and reads back each row's mask across page boundaries.
func TestMaskColumnWidths(t *testing.T) {
	for _, c := range []struct {
		qlen  int
		shift uint
	}{{1, 0}, {8, 0}, {9, 1}, {16, 1}, {17, 2}, {32, 2}, {33, 3}, {64, 3}} {
		if got := maskShift(c.qlen); got != c.shift {
			t.Fatalf("qlen %d: mask shift %d, want %d", c.qlen, got, c.shift)
		}
		rng := rand.New(rand.NewSource(int64(c.qlen)))
		m := maskColumn{shift: c.shift}
		want := make([]uint64, 2*(pageBytes>>c.shift)+5) // three pages
		for p := range want {
			want[p] = rng.Uint64() >> (64 - c.qlen)
			m.put(int32(p), want[p])
		}
		if len(m.pages) != 3 {
			t.Fatalf("qlen %d: %d masks took %d pages, want 3", c.qlen, len(want), len(m.pages))
		}
		for p, v := range want {
			if got := m.at(int32(p)); got != v {
				t.Fatalf("qlen %d: row %d reads mask %#x, want %#x", c.qlen, p, got, v)
			}
		}
		m.release()
	}
}
