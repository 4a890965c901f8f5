package topk

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
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
// tuples allocates its rows once — at most 1.25 × E × row bytes, plus one
// page of slack per column — because a page is never copied to grow.
// (Contiguous slices grown by append allocate about five times the final
// size on the way there.) The bound covers everything the run allocates
// besides: the rank order, the bitset, cursors, the result.
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
	if ta.Table().Len() != n || len(order) != n || cut != k {
		t.Fatalf("scan holds %d rows, ranks %d, cut %d; want %d, %d, %d", ta.Table().Len(), len(order), cut, n, n, k)
	}
	ta.Release()

	const columns = 3 + qlen // id, score, mask, coordinates
	rowBytes := 8 * columns
	bound := uint64(1.25*float64(n*rowBytes)) + columns*8*pageRows
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("scan of %d rows × %d B allocated %d B, bound %d", n, rowBytes, got, bound)
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

// pageImage copies every page a table can read.
func pageImage(t *Table) [][]uint64 {
	var img [][]uint64
	for _, c := range append([]column{t.id, t.score, t.mask}, t.coord...) {
		for _, pg := range c.pages {
			img = append(img, slices.Clone(pg[:]))
		}
	}
	return img
}

// TestForksNeverWriteParentPages: member views of one fused run pull and
// rank concurrently (the race detector watches the shared pages), each
// sees the shared rows at the shared positions plus its own pulls,
// identical from view to view, and afterwards every page of the fused
// run is bit for bit what it was — also when a view's first pull lands
// in a page the fused scan half filled.
func TestForksNeverWriteParentPages(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tuples, q := denseCase(rng, 60_000, 4, 50)
	ix := lists.NewMemIndex(tuples, 4)
	const members, k, pulls = 4, pageRows + 100, 9_000 // each view fills its copied page and a fresh one
	multi := NewMulti(ix, slices.Repeat([]vec.Query{q}, members), k, BestList)
	mustRun(t, multi)
	if n := multi.rows.Len(); n <= pageRows || n%pageRows == 0 {
		t.Fatalf("the fused scan holds %d rows: no half-filled page past the first", n)
	}
	image := func() (img [][]uint64) {
		for i := 0; i < members; i++ {
			view := multi.view(i)
			img = append(img, pageImage(&view)...)
		}
		return img
	}
	before := image()
	shared := multi.view(0)
	sharedRows := shared.Rows(allPositions(shared.Len()))

	views := make([]*MemberRun, members)
	for i := range views {
		views[i] = multi.Member(i)
	}
	order, cut := views[0].Ranking()
	result := slices.Clone(order[:cut])
	rows := make([][]Scored, members)
	orders := make([][]int32, members)
	var wg sync.WaitGroup
	for i, v := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer v.Release()
			for n := 0; n < pulls; n++ {
				if _, ok := v.Resume(); !ok {
					t.Error("member view ran dry")
					return
				}
				if n%2500 == 0 {
					v.Ranking() // merge a tail mid-way
				}
			}
			order, _ := v.Ranking()
			orders[i] = slices.Clone(order)
			rows[i] = v.Table().Rows(allPositions(v.Table().Len()))
		}()
	}
	wg.Wait()

	if now := image(); !slices.EqualFunc(now, before, func(a, b []uint64) bool { return slices.Equal(a, b) }) {
		t.Fatal("a member view wrote a shared page")
	}
	for i, view := range rows {
		if len(view) != len(sharedRows)+pulls {
			t.Fatalf("view %d holds %d rows, want %d", i, len(view), len(sharedRows)+pulls)
		}
		if !slices.EqualFunc(view[:len(sharedRows)], sharedRows, sameRow) {
			t.Fatalf("view %d does not see the shared rows at the shared positions", i)
		}
		if !slices.EqualFunc(view, rows[0], sameRow) || !slices.Equal(orders[i], orders[0]) {
			t.Fatalf("view %d diverged from view 0", i)
		}
		cands := slices.DeleteFunc(allPositions(len(view)), func(p int32) bool { return slices.Contains(result, p) })
		if !slices.Equal(orders[i][cut:], rankedRef(view, cands)) {
			t.Fatalf("view %d: merged order differs from a full sort", i)
		}
	}
	multi.Release()
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
	var tab Table
	tab.reset(1)
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
	rk := new(ranker)
	for trial, size := range sizes {
		from := rng.Intn(rows - size + 1)
		pos := make([]int32, size)
		for i := range pos {
			pos[i] = int32(from + i)
		}
		rng.Shuffle(size, func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
		want := slices.Clone(pos)
		tab.compareRanked(want)
		buf = tab.sortRanked(pos, buf, rk)
		if !slices.Equal(pos, want) {
			t.Fatalf("trial %d: radix ranking of rows [%d,%d) differs from the comparator's", trial, from, from+size)
		}
		if size >= rankCutover && len(buf) < size {
			t.Fatalf("trial %d: merge buffer of %d for %d rows", trial, len(buf), size)
		}
	}
	tab.release()
}
