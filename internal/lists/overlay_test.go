package lists

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/storage"
	"repro/internal/vec"
)

// mergingCursor is the cursor Overlay.Cursor builds for a touched
// dimension, forced here for any dimension.
func mergingCursor(ov *Overlay, dim int) Cursor {
	pl := ov.delta[dim]
	return &overlayCursor{base: ov.base.Cursor(dim), dead: ov.deadBase, ids: pl.IDs, vals: pl.Vals, stats: ov.stats}
}

type cursorStep struct {
	p        storage.Posting
	ok       bool
	consumed int
	pages    int64
	bytes    int64
}

// drain walks a cursor to its end, peeking before every second Next,
// and records what each call returned and what the meter showed.
func drain(c Cursor, st *storage.IOStats) []cursorStep {
	var steps []cursorStep
	for i := 0; ; i++ {
		if i%2 == 0 {
			p, ok := c.Peek()
			pages, _, bytes := st.Snapshot()
			steps = append(steps, cursorStep{p, ok, c.Consumed(), pages, bytes})
		}
		p, ok := c.Next()
		pages, _, bytes := st.Snapshot()
		steps = append(steps, cursorStep{p, ok, c.Consumed(), pages, bytes})
		if !ok {
			return steps
		}
	}
}

func isMerging(c Cursor) bool {
	_, ok := c.(*overlayCursor)
	return ok
}

// TestOverlayCursorPassThrough: a dimension no write has touched is
// served by the base cursor itself, and that is unobservable — the same
// postings, Consumed() and sequential-page charges, call for call, as
// the merging cursor gives. An insert, a replace or a delete flips
// exactly the dimensions it touches to the merging cursor; a checkpoint
// (the merged view saved and reopened under a fresh overlay) flips them
// back without moving a posting.
func TestOverlayCursorPassThrough(t *testing.T) {
	rng := rand.New(rand.NewSource(1602))
	const m, n = 6, 1500 // lists of ~750 postings: several pages each
	var tuples []vec.Sparse
	for i := 0; i < n; i++ {
		tuples = append(tuples, randTuple(rng, m))
	}
	open := func(ts []vec.Sparse) *Overlay {
		dir := t.TempDir()
		tp, lp := filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")
		if err := SaveDataset(tp, lp, ts, m); err != nil {
			t.Fatal(err)
		}
		disk, err := OpenDiskIndex(tp, lp, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { disk.Close() })
		return NewOverlay(disk)
	}
	sameAsMerging := func(ov *Overlay, dim int) []cursorStep {
		t.Helper()
		var a, b storage.IOStats
		va, vb := ov.WithStats(&a).(*Overlay), ov.WithStats(&b).(*Overlay)
		got, want := drain(va.Cursor(dim), &a), drain(mergingCursor(vb, dim), &b)
		if len(got) != len(want) {
			t.Fatalf("dim %d: %d calls, merging cursor %d", dim, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dim %d call %d: %+v, merging cursor %+v", dim, i, got[i], want[i])
			}
		}
		return got
	}

	ov := open(tuples)
	for dim := 0; dim < m; dim++ {
		if isMerging(ov.Cursor(dim)) {
			t.Fatalf("untouched dim %d got a merging cursor", dim)
		}
		if steps := sameAsMerging(ov, dim); steps[len(steps)-1].pages < 2 {
			t.Fatalf("dim %d: list too short to exercise page charges", dim)
		}
	}

	touched := map[int]bool{}
	expect := func(what string) {
		t.Helper()
		for dim := 0; dim < m; dim++ {
			if got := isMerging(ov.Cursor(dim)); got != touched[dim] {
				t.Fatalf("after %s: dim %d merging=%v, want %v", what, dim, got, touched[dim])
			}
			sameAsMerging(ov, dim)
		}
	}
	touch := func(ts ...vec.Sparse) {
		for _, t := range ts {
			for _, e := range t {
				touched[e.Dim] = true
			}
		}
	}
	ins := vec.MustSparse(vec.Entry{Dim: 0, Val: 0.5})
	if _, err := ov.Insert(ins); err != nil {
		t.Fatal(err)
	}
	touch(ins)
	expect("insert")

	repl := vec.MustSparse(vec.Entry{Dim: 1, Val: 0.25})
	victim := 0
	for len(tuples[victim]) > 2 { // keep some dimension untouched to the end
		victim++
	}
	old, err := ov.Update(victim, repl)
	if err != nil {
		t.Fatal(err)
	}
	touch(repl, old)
	expect("replace")

	gone := victim + 1
	for len(tuples[gone]) > 1 {
		gone++
	}
	if old, err = ov.Delete(gone); err != nil {
		t.Fatal(err)
	}
	touch(old)
	expect("delete")
	if len(touched) == m {
		t.Fatal("every dimension touched: nothing left to pass through")
	}

	before := make([][]cursorStep, m)
	for dim := range before {
		before[dim] = sameAsMerging(ov, dim)
	}
	ov = open(ov.Materialize())
	for dim := 0; dim < m; dim++ {
		if isMerging(ov.Cursor(dim)) {
			t.Fatalf("dim %d still merging after a checkpoint", dim)
		}
		after := sameAsMerging(ov, dim)
		for i, s := range after {
			if s.p != before[dim][i].p || s.ok != before[dim][i].ok {
				t.Fatalf("dim %d call %d: checkpoint moved a posting: %+v, was %+v", dim, i, s, before[dim][i])
			}
		}
	}
}
