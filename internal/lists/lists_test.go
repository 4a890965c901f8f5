package lists

import (
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/fixture"
	"repro/internal/storage"
	"repro/internal/vec"
)

func exampleTuples() ([]vec.Sparse, int) {
	tuples, _, _ := fixture.RunningExample()
	return tuples, 2
}

func TestBuildPostingsSorted(t *testing.T) {
	tuples, m := exampleTuples()
	lists := BuildPostings(tuples)
	if len(lists) != m {
		t.Fatalf("%d lists, want %d", len(lists), m)
	}
	// L1 from Fig. 1: d1(0.8), d2(0.7), d3(0.1), d4(0.1) — tie broken by id.
	want := []storage.Posting{{ID: 0, Val: 0.8}, {ID: 1, Val: 0.7}, {ID: 2, Val: 0.1}, {ID: 3, Val: 0.1}}
	got := lists[0]
	if len(got) != len(want) {
		t.Fatalf("L1 = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("L1[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMemIndexBasics(t *testing.T) {
	tuples, m := exampleTuples()
	ix := NewMemIndex(tuples, m)
	if ix.NumTuples() != 4 || ix.Dim() != 2 {
		t.Fatalf("n=%d m=%d", ix.NumTuples(), ix.Dim())
	}
	if ix.ListLen(0) != 4 || ix.ListLen(1) != 4 {
		t.Fatalf("list lengths %d %d", ix.ListLen(0), ix.ListLen(1))
	}
	cur := ix.Cursor(1)
	p, ok := cur.Next()
	if !ok || p.ID != 2 || p.Val != 0.8 {
		t.Fatalf("L2 head = %v", p)
	}
	if ix.Stats().SeqPages() != 1 {
		t.Fatalf("seq pages = %d, want 1", ix.Stats().SeqPages())
	}
	d := ix.Tuple(0)
	if d.Get(0) != 0.8 || d.Get(1) != 0.32 {
		t.Fatalf("tuple 0 = %v", d)
	}
	if ix.Stats().RandReads() != 1 {
		t.Fatalf("rand reads = %d, want 1", ix.Stats().RandReads())
	}
}

// TestMemIndexIsInserts: an in-memory index is an empty overlay after
// one Insert per tuple, in id order. Over random tuple sets — tied
// values, sparse rows, m up to 64, lists several pages long — the two
// agree on sizes, on every cursor's postings, Consumed and page charges,
// on what Tuple and Project charge, and on DeltaStats. Writes to the
// built index never reach the caller's tuples.
func TestMemIndexIsInserts(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(64)
		density := 0.02 + 0.6*rng.Float64()
		ties := rng.Intn(2) == 0
		ts := make([]vec.Sparse, rng.Intn(1200))
		for i := range ts {
			var entries []vec.Entry
			for len(entries) == 0 {
				for d := 0; d < m; d++ {
					if rng.Float64() < density {
						v := 1 - rng.Float64()
						if ties {
							v = float64(1+rng.Intn(4)) / 4
						}
						entries = append(entries, vec.Entry{Dim: d, Val: v})
					}
				}
			}
			ts[i] = vec.MustSparse(entries...)
		}
		given := cloneTuples(ts)

		built := NewMemIndex(ts, m)
		ins := NewMemIndex(nil, m)
		for _, tu := range ts {
			if _, err := ins.Insert(tu); err != nil {
				t.Fatal(err)
			}
		}
		if built.NumTuples() != ins.NumTuples() || built.DeltaStats() != ins.DeltaStats() {
			t.Fatalf("trial %d: n %d, stats %+v; after inserts n %d, stats %+v",
				trial, built.NumTuples(), built.DeltaStats(), ins.NumTuples(), ins.DeltaStats())
		}
		for d := 0; d < m; d++ {
			if built.ListLen(d) != ins.ListLen(d) {
				t.Fatalf("trial %d dim %d: ListLen %d, after inserts %d", trial, d, built.ListLen(d), ins.ListLen(d))
			}
			var a, b storage.IOStats
			got, want := drain(built.WithStats(&a).Cursor(d), &a), drain(ins.WithStats(&b).Cursor(d), &b)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d dim %d: the cursors differ", trial, d)
			}
		}
		for id := range ts {
			dims := rng.Perm(m)[:1+rng.Intn(min(m, 8))]
			sort.Ints(dims)
			var a, b storage.IOStats
			gt, wt := built.WithStats(&a).Tuple(id), ins.WithStats(&b).Tuple(id)
			gp, wp := make([]float64, len(dims)), make([]float64, len(dims))
			if err := built.WithStats(&a).Project(id, dims, gp); err != nil {
				t.Fatal(err)
			}
			if err := ins.WithStats(&b).Project(id, dims, wp); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(gt, wt) || !slices.Equal(gp, wp) || a != b {
				t.Fatalf("trial %d tuple %d: %v %v charged %+v; after inserts %v %v charged %+v", trial, id, gt, gp, &a, wt, wp, &b)
			}
		}

		if len(ts) < 2 {
			continue
		}
		if _, err := built.Update(0, vec.MustSparse(vec.Entry{Dim: 0, Val: 0.5})); err != nil {
			t.Fatal(err)
		}
		if _, err := built.Delete(1); err != nil {
			t.Fatal(err)
		}
		if _, err := built.Insert(vec.MustSparse(vec.Entry{Dim: m - 1, Val: 0.5})); err != nil {
			t.Fatal(err)
		}
		for i := range given {
			if !slices.Equal(ts[i], given[i]) {
				t.Fatalf("trial %d: caller's tuple %d reads %v after writes, was %v", trial, i, ts[i], given[i])
			}
		}
	}
}

// shapedTuples draws n tuples over m dimensions, each with between lo
// and hi entries (of at most m) at random dimensions: ST-shaped when
// nearly every dimension is set, WSJ-shaped when few of many are.
func shapedTuples(rng *rand.Rand, n, m, lo, hi int) []vec.Sparse {
	tuples := make([]vec.Sparse, n)
	for i := range tuples {
		entries := make([]vec.Entry, lo+rng.Intn(hi-lo+1))
		for j, d := range rng.Perm(m)[:len(entries)] {
			entries[j] = vec.Entry{Dim: d, Val: 1 - rng.Float64()}
		}
		tuples[i] = vec.MustSparse(entries...)
	}
	return tuples
}

// TestDiskIndexMatchesMemIndex: the two implementations must agree on
// every list, every tuple and every projection, and charge the same
// logical work for them — bytes read included, so the memory index and
// an overlay's own tuples charge what the disk record costs — over
// mixed, ST-shaped (dense records) and WSJ-shaped (sparse records, 2-byte
// dims) tuples, and sparse ones past m = 65 536 (4-byte dims).
func TestDiskIndexMatchesMemIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	mixed := fixture.RandCase(rng, 300, 10, 4, 5)
	for _, c := range []struct {
		name   string
		tuples []vec.Sparse
		m      int
	}{
		{"mixed", mixed.Tuples, mixed.M},
		{"st", shapedTuples(rng, 300, 20, 15, 20), 20},
		{"wsj", shapedTuples(rng, 300, 3000, 20, 100), 3000},
		{"wide", shapedTuples(rng, 100, 1<<16+4, 20, 100), 1<<16 + 4},
	} {
		t.Run(c.name, func(t *testing.T) { diskMatchesMem(t, rng, c.tuples, c.m) })
	}
}

func diskMatchesMem(t *testing.T, rng *rand.Rand, tuples []vec.Sparse, m int) {
	mem := NewMemIndex(tuples, m)

	dir := t.TempDir()
	tp, lp := filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")
	if err := SaveDataset(tp, lp, tuples, m); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenDiskIndex(tp, lp)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	if disk.NumTuples() != mem.NumTuples() || disk.Dim() != mem.Dim() {
		t.Fatalf("disk n=%d m=%d, mem n=%d m=%d", disk.NumTuples(), disk.Dim(), mem.NumTuples(), mem.Dim())
	}
	for d := 0; d < m; d++ {
		if disk.ListLen(d) != mem.ListLen(d) {
			t.Fatalf("dim %d: disk len %d, mem len %d", d, disk.ListLen(d), mem.ListLen(d))
		}
		dc, mc := disk.Cursor(d), mem.Cursor(d)
		for {
			dp, dok := dc.Next()
			mp, mok := mc.Next()
			if dok != mok {
				t.Fatalf("dim %d: cursor length mismatch", d)
			}
			if !dok {
				break
			}
			if dp != mp {
				t.Fatalf("dim %d: %v vs %v", d, dp, mp)
			}
		}
	}
	// The random accesses, also through an overlay that holds every tuple
	// as an insert, each charging a meter of its own.
	ov := NewOverlay(NewMemIndex(nil, m))
	for _, tu := range tuples {
		if _, err := ov.Insert(tu); err != nil {
			t.Fatal(err)
		}
	}
	var meters [3]storage.IOStats
	ixs := []Index{disk.WithStats(&meters[0]), mem.WithStats(&meters[1]), ov.WithStats(&meters[2])}
	for id := range tuples {
		dims := rng.Perm(m)[:1+rng.Intn(min(m, 8))]
		sort.Ints(dims)
		want := vec.Query{Dims: dims}.Project(tuples[id])
		for i, ix := range ixs {
			if tu := ix.Tuple(id); !slices.Equal(tu, tuples[id]) {
				t.Fatalf("index %d tuple %d: %v, want %v", i, id, tu, tuples[id])
			}
			got := make([]float64, len(dims))
			if err := ix.Project(id, dims, got); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("index %d tuple %d on %v: projected %v, want %v", i, id, dims, got, want)
			}
		}
	}
	// Every meter must have counted the same logical work, bytes included,
	// on every build.
	for i := range meters {
		seq, rnd, bytes := meters[i].Snapshot()
		if wseq, wrnd, wbytes := meters[0].Snapshot(); seq != wseq || rnd != wrnd || bytes != wbytes {
			t.Fatalf("index %d charged %d pages, %d reads, %d bytes; the disk index %d, %d, %d", i, seq, rnd, bytes, wseq, wrnd, wbytes)
		}
	}
	if disk.Stats().SeqPages() != mem.Stats().SeqPages() || mem.Stats().SeqPages() == 0 {
		t.Fatalf("sequential pages: disk %d, mem %d", disk.Stats().SeqPages(), mem.Stats().SeqPages())
	}
}

func TestOpenDiskIndexErrors(t *testing.T) {
	dir := t.TempDir()
	tp, lp := filepath.Join(dir, "t.dat"), filepath.Join(dir, "l.dat")
	if _, err := OpenDiskIndex(tp, lp); err == nil {
		t.Fatal("missing files accepted")
	}
	tuples, m := exampleTuples()
	if err := SaveDataset(tp, lp, tuples, m); err != nil {
		t.Fatal(err)
	}
	// Mismatched dimensionality between the two files must be rejected.
	if err := SaveDataset(filepath.Join(dir, "t3.dat"), lp, tuples, m+3); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDiskIndex(tp, lp); err == nil {
		t.Fatal("dimensionality mismatch accepted")
	}
}

func TestMemCursorPageAccounting(t *testing.T) {
	// 700 postings in one list: ceil(700/341) = 3 pages.
	var tuples []vec.Sparse
	for i := 0; i < 700; i++ {
		tuples = append(tuples, vec.MustSparse(vec.Entry{Dim: 0, Val: float64(i+1) / 701}))
	}
	ix := NewMemIndex(tuples, 1)
	cur := ix.Cursor(0)
	for {
		if _, ok := cur.Next(); !ok {
			break
		}
	}
	if got := ix.Stats().SeqPages(); got != 3 {
		t.Fatalf("seq pages = %d, want 3", got)
	}
}

// TestDiskCursorPrefetchesAhead: after every posting a disk cursor
// returns, the records it has prefetched reach at least prefetchRefill
// postings past it (or its page's end, the farthest a cursor looks) and
// at most prefetchDistance. A clone starts at its original's prefetch
// position and from then on each keeps its own: advancing one never
// moves the other's.
func TestDiskCursorPrefetchesAhead(t *testing.T) {
	const n = 1000 // three pages of postings
	tuples := make([]vec.Sparse, n)
	for i := range tuples {
		tuples[i] = vec.MustSparse(vec.Entry{Dim: 0, Val: float64(i+1) / (n + 1)})
	}
	dir := t.TempDir()
	tp, lp := filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")
	if err := SaveDataset(tp, lp, tuples, 1); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenDiskIndex(tp, lp)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	next := func(d *diskCursor, steps int) {
		t.Helper()
		for range steps {
			if _, ok := d.Next(); !ok {
				t.Fatal("list ended early")
			}
			pos := d.Consumed()
			pageEnd := min((pos-1)/postingsPerPage*postingsPerPage+postingsPerPage, n)
			if d.fetched < min(pos+prefetchRefill, pageEnd) || d.fetched > pos+prefetchDistance {
				t.Fatalf("at position %d the cursor prefetched up to %d", pos, d.fetched)
			}
		}
	}
	orig := disk.Cursor(0).(*diskCursor)
	next(orig, 300)
	clone := orig.Clone().(*diskCursor)
	if clone.fetched != orig.fetched {
		t.Fatalf("clone starts prefetched to %d, its original to %d", clone.fetched, orig.fetched)
	}
	at := orig.fetched
	next(clone, 100) // across a page boundary
	if orig.fetched != at || orig.Consumed() != 300 {
		t.Fatalf("advancing the clone moved the original to %d/%d", orig.Consumed(), orig.fetched)
	}
	at = clone.fetched
	next(orig, 500)
	if clone.fetched != at || clone.Consumed() != 400 {
		t.Fatalf("advancing the original moved the clone to %d/%d", clone.Consumed(), clone.fetched)
	}
}
