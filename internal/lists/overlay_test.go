package lists

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/fixture"
	"repro/internal/storage"
	"repro/internal/vec"
)

// mergingCursor is the cursor Overlay.Cursor builds for a touched
// dimension, forced here for any dimension.
func mergingCursor(ov *Overlay, dim int) Cursor {
	pl := ov.delta[dim]
	return &overlayCursor{base: ov.base.Cursor(dim), dead: ov.deadBase, delta: deltaCursor{ids: pl.IDs, vals: pl.Vals, stats: ov.stats}}
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
		disk, err := OpenDiskIndex(tp, lp)
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

// randTuple draws a non-empty sparse tuple over m dimensions (empty
// tuples are rejected payloads: they encode tombstones on disk).
func randTuple(rng *rand.Rand, m int) vec.Sparse {
	var entries []vec.Entry
	for len(entries) == 0 {
		for d := 0; d < m; d++ {
			if rng.Float64() < 0.5 {
				entries = append(entries, vec.Entry{Dim: d, Val: 0.05 + 0.95*rng.Float64()})
			}
		}
	}
	t, err := vec.NewSparse(entries)
	if err != nil {
		panic(err)
	}
	return t
}

// applyRandomOps drives a random mutation sequence against ix while
// mirroring it in shadow (nil = deleted). Returns the shadow.
func applyRandomOps(t *testing.T, rng *rand.Rand, ix *Overlay, shadow []vec.Sparse, m, nOps int) []vec.Sparse {
	t.Helper()
	live := func() []int {
		var ids []int
		for id, tu := range shadow {
			if tu != nil {
				ids = append(ids, id)
			}
		}
		return ids
	}
	for op := 0; op < nOps; op++ {
		switch ids := live(); {
		case len(ids) == 0 || rng.Float64() < 0.4:
			tu := randTuple(rng, m)
			id, err := ix.Insert(tu)
			if err != nil {
				t.Fatalf("insert: %v", err)
			}
			if id != len(shadow) {
				t.Fatalf("insert id %d, want %d", id, len(shadow))
			}
			shadow = append(shadow, tu)
		case rng.Float64() < 0.6:
			id := ids[rng.Intn(len(ids))]
			tu := randTuple(rng, m)
			old, err := ix.Update(id, tu)
			if err != nil {
				t.Fatalf("update %d: %v", id, err)
			}
			if old.String() != shadow[id].String() {
				t.Fatalf("update %d returned old %v, want %v", id, old, shadow[id])
			}
			shadow[id] = tu
		default:
			id := ids[rng.Intn(len(ids))]
			old, err := ix.Delete(id)
			if err != nil {
				t.Fatalf("delete %d: %v", id, err)
			}
			if old.String() != shadow[id].String() {
				t.Fatalf("delete %d returned old %v, want %v", id, old, shadow[id])
			}
			shadow[id] = nil
		}
	}
	return shadow
}

// assertIndexEquals checks that got serves exactly the same postings,
// list lengths and tuples as a MemIndex freshly built on shadow.
func assertIndexEquals(t *testing.T, got Index, shadow []vec.Sparse, m int) {
	t.Helper()
	want := NewMemIndex(shadow, m)
	if got.NumTuples() != want.NumTuples() {
		t.Fatalf("NumTuples %d, want %d", got.NumTuples(), want.NumTuples())
	}
	for d := 0; d < m; d++ {
		if got.ListLen(d) != want.ListLen(d) {
			t.Fatalf("ListLen(%d) = %d, want %d", d, got.ListLen(d), want.ListLen(d))
		}
		gc, wc := got.Cursor(d), want.Cursor(d)
		for i := 0; ; i++ {
			gp, gok := gc.Next()
			wp, wok := wc.Next()
			if gok != wok {
				t.Fatalf("dim %d posting %d: ok %v vs %v", d, i, gok, wok)
			}
			if !gok {
				break
			}
			if gp != wp {
				t.Fatalf("dim %d posting %d: %v, want %v", d, i, gp, wp)
			}
		}
	}
	for id := range shadow {
		g, w := got.Tuple(id), want.Tuple(id)
		if g.String() != w.String() {
			t.Fatalf("tuple %d: %v, want %v", id, g, w)
		}
	}
}

func cloneTuples(ts []vec.Sparse) []vec.Sparse {
	out := make([]vec.Sparse, len(ts))
	for i, t := range ts {
		if t != nil {
			out[i] = t.Clone()
		}
	}
	return out
}

// saveAndOpen writes tuples as a dataset under a test directory and
// opens it.
func saveAndOpen(t *testing.T, tuples []vec.Sparse, m int) *DiskIndex {
	t.Helper()
	dir := t.TempDir()
	tp, lp := filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")
	if err := SaveDataset(tp, lp, tuples, m); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenDiskIndex(tp, lp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return disk
}

// TestOverlayMatchesRebuild: the write overlay over a disk base, driven
// by a random op sequence, serves exactly what a fresh in-memory index on
// the post-update dataset serves.
func TestOverlayMatchesRebuild(t *testing.T) {
	overlayMatchesRebuild(t, func(t *testing.T, tuples []vec.Sparse, m int) Index { return saveAndOpen(t, tuples, m) })
}

// TestMemIndexMutationsMatchRebuild: an in-memory index mutates through
// the same overlay, and after a random op sequence it is bit-for-bit the
// index a fresh build on the post-update dataset would produce.
func TestMemIndexMutationsMatchRebuild(t *testing.T) {
	overlayMatchesRebuild(t, func(_ *testing.T, tuples []vec.Sparse, m int) Index { return NewMemIndex(tuples, m) })
}

// overlayMatchesRebuild drives an overlay over the base open builds
// through random op sequences and checks it against a fresh rebuild —
// same posting order (val desc, id asc), same list lengths, same tuples
// — and that it never writes the tuples its base was built from.
func overlayMatchesRebuild(t *testing.T, open func(t *testing.T, tuples []vec.Sparse, m int) Index) {
	rng := rand.New(rand.NewSource(43))
	const m = 4
	for trial := 0; trial < 10; trial++ {
		var given []vec.Sparse
		for i := 0; i < 10; i++ {
			given = append(given, randTuple(rng, m))
		}
		want := cloneTuples(given)
		ov := NewOverlay(open(t, given, m))
		shadow := applyRandomOps(t, rng, ov, cloneTuples(given), m, 40)
		assertIndexEquals(t, ov, shadow, m)
		for id := range want {
			if !slices.Equal(given[id], want[id]) {
				t.Fatalf("trial %d: base tuple %d was written: %v, was %v", trial, id, given[id], want[id])
			}
		}

		// Cursor clones resume independently at the merge position.
		c := ov.Cursor(0)
		c.Next()
		cl := c.Clone()
		for {
			p1, ok1 := c.Next()
			p2, ok2 := cl.Next()
			if ok1 != ok2 || p1 != p2 {
				t.Fatalf("clone diverged: %v/%v vs %v/%v", p1, ok1, p2, ok2)
			}
			if !ok1 {
				break
			}
		}
	}
}

// TestOverlayErrorPaths pins the overlay's rejection paths for
// overlay-resident (inserted) and base tuples alike: double deletes and
// updates of deleted tuples; and that a deleted tuple reads empty.
func TestOverlayErrorPaths(t *testing.T) {
	tuples, _, _ := fixture.RunningExample()
	ov := NewOverlay(NewMemIndex(cloneTuples(tuples), 2))

	id, err := ov.Insert(vec.MustSparse(vec.Entry{Dim: 0, Val: 0.4}))
	if err != nil || id != 4 {
		t.Fatalf("insert: id %d err %v", id, err)
	}
	if _, err := ov.Delete(id); err != nil {
		t.Fatalf("delete inserted: %v", err)
	}
	if _, err := ov.Delete(id); err == nil {
		t.Fatal("double delete of inserted tuple accepted")
	}
	if _, err := ov.Update(id, vec.MustSparse(vec.Entry{Dim: 1, Val: 0.2})); err == nil {
		t.Fatal("update of deleted inserted tuple accepted")
	}
	if _, err := ov.Delete(1); err != nil {
		t.Fatalf("delete base: %v", err)
	}
	if _, err := ov.Delete(1); err == nil {
		t.Fatal("double delete of base tuple accepted")
	}
	if _, err := ov.Update(1, vec.MustSparse(vec.Entry{Dim: 1, Val: 0.2})); err == nil {
		t.Fatal("update of deleted base tuple accepted")
	}
	if _, err := ov.Update(99, nil); err == nil {
		t.Fatal("update out of range accepted")
	}
	for _, dead := range []int{1, id} {
		if got := ov.Tuple(dead); len(got) != 0 {
			t.Fatalf("deleted tuple %d reads %v, want empty", dead, got)
		}
	}
}

// TestMemIndexMutationErrors pins the rejection paths of a writable
// in-memory index: out-of-range ids, double deletes, updates of deleted
// tuples, and out-of-domain payloads.
func TestMemIndexMutationErrors(t *testing.T) {
	tuples, _, _ := fixture.RunningExample()
	ov := NewOverlay(NewMemIndex(cloneTuples(tuples), 2))

	if _, err := ov.Update(99, vec.MustSparse(vec.Entry{Dim: 0, Val: 0.5})); err == nil {
		t.Fatal("update out of range accepted")
	}
	if _, err := ov.Delete(-1); err == nil {
		t.Fatal("delete out of range accepted")
	}
	if _, err := ov.Insert(vec.MustSparse(vec.Entry{Dim: 2, Val: 0.5})); err == nil {
		t.Fatal("insert with dim ≥ m accepted")
	}
	if _, err := ov.Insert(vec.Sparse{{Dim: 0, Val: 1.5}}); err == nil {
		t.Fatal("insert with value > 1 accepted")
	}
	if _, err := ov.Delete(3); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := ov.Delete(3); err == nil {
		t.Fatal("double delete accepted")
	}
	if _, err := ov.Update(3, vec.MustSparse(vec.Entry{Dim: 0, Val: 0.5})); err == nil {
		t.Fatal("update of deleted tuple accepted")
	}
	if got := ov.Tuple(3); len(got) != 0 {
		t.Fatalf("deleted tuple reads %v, want empty", got)
	}
}

// TestOverlayDeltaStats pins the observable delta accounting the
// checkpointer triggers on: counts track live inserts, overrides and
// tombstones exactly, and the byte estimate grows with the delta.
func TestOverlayDeltaStats(t *testing.T) {
	tuples, _, _ := fixture.RunningExample()
	ov := NewOverlay(NewMemIndex(cloneTuples(tuples), 2))

	if st := ov.DeltaStats(); st != (DeltaStats{Bytes: st.Bytes}) || st.Bytes < 0 {
		t.Fatalf("fresh overlay delta %+v, want zero counts", st)
	}

	id, err := ov.Insert(vec.MustSparse(vec.Entry{Dim: 0, Val: 0.4}, vec.Entry{Dim: 1, Val: 0.3}))
	if err != nil {
		t.Fatal(err)
	}
	st := ov.DeltaStats()
	if st.Added != 1 || st.Overridden != 0 || st.Tombstoned != 0 || st.DeltaPostings != 2 {
		t.Fatalf("after insert: %+v", st)
	}
	prevBytes := st.Bytes

	if _, err := ov.Update(0, vec.MustSparse(vec.Entry{Dim: 0, Val: 0.9})); err != nil {
		t.Fatal(err)
	}
	st = ov.DeltaStats()
	if st.Added != 1 || st.Overridden != 1 || st.Tombstoned != 0 || st.DeltaPostings != 3 {
		t.Fatalf("after update: %+v", st)
	}
	if st.Bytes <= prevBytes {
		t.Fatalf("bytes did not grow: %d -> %d", prevBytes, st.Bytes)
	}

	if _, err := ov.Delete(1); err != nil {
		t.Fatal(err)
	}
	if _, err := ov.Delete(id); err != nil {
		t.Fatal(err)
	}
	st = ov.DeltaStats()
	if st.Added != 0 || st.Overridden != 1 || st.Tombstoned != 2 || st.DeltaPostings != 1 {
		t.Fatalf("after deletes: %+v", st)
	}

	// The accounting is incremental; a long random op sequence must not
	// let it drift from a from-scratch recount.
	rng := rand.New(rand.NewSource(7))
	applyRandomOps(t, rng, ov, cloneTuples(ov.Materialize()), 2, 200)
	if got, want := ov.DeltaStats(), recountDelta(ov); got != want {
		t.Fatalf("incremental delta stats drifted:\n got  %+v\n want %+v", got, want)
	}
}

// recountDelta recomputes DeltaStats by scanning the overlay's internal
// state — the oracle the incremental counters are checked against.
func recountDelta(ov *Overlay) DeltaStats {
	var st DeltaStats
	for _, t := range ov.added {
		if t == nil {
			st.Tombstoned++
			st.Bytes += tombBytes
			continue
		}
		st.Added++
		st.Bytes += tupleBytes(t)
	}
	for _, e := range ov.over {
		if e.dead {
			st.Tombstoned++
			st.Bytes += tombBytes
			continue
		}
		st.Overridden++
		st.Bytes += tupleBytes(e.t)
	}
	for _, pl := range ov.delta {
		st.DeltaPostings += pl.Len()
		st.Bytes += 12 * int64(pl.Len())
	}
	st.Bytes += 8 * int64(len(ov.deadBase))
	return st
}

// TestOverlayMaterialize: the materialized snapshot is exactly the live
// view (nil at tombstoned slots), it leaves the overlay's meter
// untouched, and a dataset saved from it round-trips through the disk
// format to the same answers.
func TestOverlayMaterialize(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const m = 4
	var base []vec.Sparse
	for i := 0; i < 12; i++ {
		base = append(base, randTuple(rng, m))
	}
	ov := NewOverlay(saveAndOpen(t, base, m))
	shadow := applyRandomOps(t, rng, ov, cloneTuples(base), m, 30)

	seq0, rnd0, by0 := ov.Stats().Snapshot()
	mat := ov.Materialize()
	if seq1, rnd1, by1 := ov.Stats().Snapshot(); seq1 != seq0 || rnd1 != rnd0 || by1 != by0 {
		t.Fatalf("materialize charged the overlay meter: seq %d→%d rand %d→%d", seq0, seq1, rnd0, rnd1)
	}
	if len(mat) != len(shadow) {
		t.Fatalf("materialized %d tuples, want %d", len(mat), len(shadow))
	}
	for id := range shadow {
		if (mat[id] == nil) != (shadow[id] == nil) {
			t.Fatalf("tuple %d: materialized nil=%v, shadow nil=%v", id, mat[id] == nil, shadow[id] == nil)
		}
		if mat[id].String() != shadow[id].String() {
			t.Fatalf("tuple %d: %v, want %v", id, mat[id], shadow[id])
		}
	}

	// The snapshot survives the disk round-trip: ids stay stable (nil
	// slots become empty records) and the reopened files serve the same
	// index state.
	assertIndexEquals(t, saveAndOpen(t, mat, m), shadow, m)
}
