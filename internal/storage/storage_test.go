package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/vec"
)

func randTuples(rng *rand.Rand, n, m int) []vec.Sparse {
	tuples := make([]vec.Sparse, n)
	for i := range tuples {
		var entries []vec.Entry
		for d := 0; d < m; d++ {
			if rng.Float64() < 0.4 {
				entries = append(entries, vec.Entry{Dim: d, Val: 1 - rng.Float64()})
			}
		}
		if len(entries) == 0 {
			entries = append(entries, vec.Entry{Dim: rng.Intn(m), Val: 1 - rng.Float64()})
		}
		t, _ := vec.NewSparse(entries)
		tuples[i] = t
	}
	return tuples
}

// writeListMap feeds WriteListFile from row-form lists keyed by
// dimension, the shape these tests build their expectations in.
func writeListMap(path string, lists map[int][]Posting, m int) error {
	dims := make([]int, 0, len(lists))
	for d := range lists {
		dims = append(dims, d)
	}
	sort.Ints(dims)
	counts := make([]int, len(dims))
	for i, d := range dims {
		counts[i] = len(lists[d])
	}
	return WriteListFile(path, m, dims, counts, func(i int, out *ListSink) error {
		l := lists[dims[i]]
		ids, vals := make([]int32, len(l)), make([]float64, len(l))
		for j, p := range l {
			ids[j], vals[j] = int32(p.ID), p.Val
		}
		out.Append(ids, vals)
		return nil
	})
}

func TestTupleFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tuples := randTuples(rng, 200, 12)
	path := filepath.Join(t.TempDir(), "tuples.dat")
	if err := WriteTupleFile(path, tuples, 12); err != nil {
		t.Fatal(err)
	}
	stats := &IOStats{}
	tf, err := OpenTupleFile(path, stats, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	if tf.NumTuples() != 200 || tf.Dim() != 12 {
		t.Fatalf("header: n=%d m=%d", tf.NumTuples(), tf.Dim())
	}
	for _, id := range rng.Perm(200) {
		got, err := tf.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		want := tuples[id]
		if len(got) != len(want) {
			t.Fatalf("tuple %d: %v, want %v", id, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tuple %d entry %d: %v, want %v", id, i, got[i], want[i])
			}
		}
	}
	if stats.RandReads() != 200 {
		t.Fatalf("rand reads = %d, want 200 (one per Get)", stats.RandReads())
	}
	if _, err := tf.Get(200); err == nil {
		t.Fatal("out-of-range id accepted")
	}
	if _, err := tf.Get(-1); err == nil {
		t.Fatal("negative id accepted")
	}
}

func TestOpenTupleFileRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lists.dat")
	if err := writeListMap(path, map[int][]Posting{0: {{ID: 1, Val: 0.5}}}, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTupleFile(path, &IOStats{}, 0); err == nil {
		t.Fatal("list file accepted as tuple file")
	}
}

func TestListFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	lists := map[int][]Posting{}
	for d := 0; d < 7; d++ {
		n := rng.Intn(900)
		l := make([]Posting, n)
		val := 1.0
		for i := range l {
			val -= rng.Float64() / float64(n+1)
			if val < 0 {
				val = 0
			}
			l[i] = Posting{ID: rng.Intn(10000), Val: val}
		}
		lists[d] = l
	}
	path := filepath.Join(t.TempDir(), "lists.dat")
	if err := writeListMap(path, lists, 7); err != nil {
		t.Fatal(err)
	}
	stats := &IOStats{}
	lf, err := OpenListFile(path, stats, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	for d, want := range lists {
		if lf.ListLen(d) != len(want) {
			t.Fatalf("dim %d: len %d, want %d", d, lf.ListLen(d), len(want))
		}
		cur := lf.Cursor(d)
		if p, ok := cur.Peek(); len(want) > 0 && (!ok || p != want[0]) {
			t.Fatalf("dim %d: Peek %v,%v", d, p, ok)
		}
		for i, w := range want {
			got, ok := cur.Next()
			if !ok || got != w {
				t.Fatalf("dim %d posting %d: %v (ok=%v), want %v", d, i, got, ok, w)
			}
		}
		if _, ok := cur.Next(); ok {
			t.Fatalf("dim %d: cursor did not end", d)
		}
		if cur.Consumed() != len(want) {
			t.Fatalf("dim %d: consumed %d, want %d", d, cur.Consumed(), len(want))
		}
	}
	if stats.SeqPages() == 0 {
		t.Fatal("no sequential pages recorded")
	}
	// A dimension without a list yields an empty cursor.
	if _, ok := lf.Cursor(99).Next(); ok {
		t.Fatal("missing dimension returned postings")
	}
}

func TestIOStats(t *testing.T) {
	s := &IOStats{}
	s.AddSeqPage(3)
	s.AddRandRead(100)
	seq, rnd, bytes := s.Snapshot()
	if seq != 3 || rnd != 1 || bytes != 3*PageSize+100 {
		t.Fatalf("snapshot %d %d %d", seq, rnd, bytes)
	}
	s.Reset()
	if s.SeqPages() != 0 || s.RandReads() != 0 {
		t.Fatal("reset failed")
	}
}

func TestDiskModel(t *testing.T) {
	m := DiskModel{SeqPage: time.Millisecond, RandRead: 10 * time.Millisecond}
	if got := m.Time(5, 2); got != 25*time.Millisecond {
		t.Fatalf("Time = %v", got)
	}
}

// TestWritersFailClean: a write that fails (ENOSPC from /dev/full, on
// the first chunk flush of a file larger than one chunk) or a file that
// cannot be created makes both writers return the error and leave
// nothing behind — no truncated file for a later open or a generation
// sweep to find.
func TestWritersFailClean(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	const n = 120_000 // both files exceed chunkSize
	tuples := make([]vec.Sparse, n)
	ids, vals := make([]int32, n), make([]float64, n)
	for i := range tuples {
		tuples[i] = vec.Sparse{{Dim: 0, Val: 1 - float64(i)/n}}
		ids[i], vals[i] = int32(i), 1-float64(i)/n
	}
	writers := map[string]func(path string) error{
		"tuples": func(path string) error { return WriteTupleFile(path, tuples, 1) },
		"lists": func(path string) error {
			return WriteListFile(path, 1, []int{0}, []int{n}, func(_ int, out *ListSink) error {
				out.Append(ids, vals)
				return nil
			})
		},
	}
	for name, write := range writers {
		dir := t.TempDir()
		// The writer follows the link; removing the "file" afterwards
		// removes only the link, never the device.
		full := filepath.Join(dir, "full.dat")
		if err := os.Symlink("/dev/full", full); err != nil {
			t.Fatal(err)
		}
		if err := write(full); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("%s onto a full device: err = %v, want ENOSPC", name, err)
		}
		if err := write(filepath.Join(dir, "no-such-dir", "x.dat")); err == nil {
			t.Fatalf("%s into a missing directory succeeded", name)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Fatalf("%s: failed writes left %d entries behind", name, len(left))
		}
		// The same writer on a healthy path still produces a valid file.
		ok := filepath.Join(dir, "ok.dat")
		if err := write(ok); err != nil {
			t.Fatal(err)
		}
		if err := VerifyChecksum(ok); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestWriteListFileRejectsWrongCount: a source that yields a list of
// another length than the directory promised is refused, and the file
// whose directory would lie is removed.
func TestWriteListFileRejectsWrongCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lists.dat")
	err := WriteListFile(path, 1, []int{0}, []int{3}, func(_ int, out *ListSink) error {
		out.Append([]int32{1, 2}, []float64{0.5, 0.25})
		return nil
	})
	if err == nil {
		t.Fatal("short list accepted")
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("refused file still exists (stat: %v)", serr)
	}
}

// TestProjectWithIsGetWith: the query path's random access reads the
// same record GetWith decodes — the projection equals
// vec.Query.ProjectInto of the materialized tuple, and the meter is
// charged identically (reads, bytes, bypasses), also by the charge-only
// call with no dimensions. Both fail alike on a bad id and on a record
// whose entry count runs past its end.
func TestProjectWithIsGetWith(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const n, m = 300, 12
	tuples := randTuples(rng, n, m)
	tuples[7] = nil // an empty record, as checkpoints write tombstones
	path := filepath.Join(t.TempDir(), "tuples.dat")
	if err := WriteTupleFile(path, tuples, m); err != nil {
		t.Fatal(err)
	}
	tf, err := OpenTupleFile(path, &IOStats{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	charges := func(st *IOStats) [3]int64 {
		_, rnd, bytes := st.Snapshot()
		return [3]int64{rnd, bytes, st.Bypasses()}
	}
	for id := 0; id < n; id++ {
		dims := rng.Perm(m)[:1+rng.Intn(m)]
		sort.Ints(dims)
		var viaGet, viaProject, chargeOnly IOStats
		tuple, err := tf.GetWith(id, &viaGet)
		if err != nil {
			t.Fatal(err)
		}
		want := vec.Query{Dims: dims}.Project(tuple)
		got := make([]float64, len(dims))
		for i := range got {
			got[i] = -1 // every slot must be written, zeros included
		}
		if err := tf.ProjectWith(id, dims, got, &viaProject); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("tuple %d on %v: projected %v, want %v", id, dims, got, want)
		}
		if err := tf.ProjectWith(id, nil, nil, &chargeOnly); err != nil {
			t.Fatal(err)
		}
		if g, p, c := charges(&viaGet), charges(&viaProject), charges(&chargeOnly); g != p || g != c {
			t.Fatalf("tuple %d: GetWith charged %v, ProjectWith %v, charge-only %v", id, g, p, c)
		}
	}
	for _, id := range []int{-1, n} {
		_, getErr := tf.GetWith(id, nil)
		if err := tf.ProjectWith(id, nil, nil, nil); err == nil || err.Error() != getErr.Error() {
			t.Fatalf("id %d: ProjectWith %v, GetWith %v", id, err, getErr)
		}
	}

	// Corrupt tuple 0's entry count (the CRC trailer is only checked by
	// VerifyChecksum, so the file still opens).
	tf.Close()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xFF, 0xFF, 0, 0}, 16+8*n); err != nil {
		t.Fatal(err)
	}
	f.Close()
	bad, err := OpenTupleFile(path, &IOStats{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	_, getErr := bad.GetWith(0, nil)
	for _, dims := range [][]int{nil, {0, 1}} {
		err := bad.ProjectWith(0, dims, make([]float64, len(dims)), nil)
		if getErr == nil || err == nil || err.Error() != getErr.Error() {
			t.Fatalf("corrupt record, dims %v: ProjectWith %v, GetWith %v", dims, err, getErr)
		}
	}
}

// TestRawCopiesAreTheFileBytes: RawRecords and RawPostings hand over
// exactly the bytes the file holds for the range, piece by piece through
// the caller's scratch — every piece scratch-sized but the last, on every
// build, mapped tuple file or not — and a copy made of them and of
// freshly encoded records is the file WriteTupleFile / WriteListFile
// would have written. Neither charges a meter.
func TestRawCopiesAreTheFileBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const n, m = 400, 9
	tuples := randTuples(rng, n, m)
	tuples[0], tuples[123], tuples[n-1] = nil, nil, nil // tombstones at the edges and inside
	lists := map[int][]Posting{}
	for id, tu := range tuples {
		for _, e := range tu {
			lists[e.Dim] = append(lists[e.Dim], Posting{ID: id, Val: e.Val})
		}
	}
	dir := t.TempDir()
	tp, lp := filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")
	if err := WriteTupleFile(tp, tuples, m); err != nil {
		t.Fatal(err)
	}
	if err := writeListMap(lp, lists, m); err != nil {
		t.Fatal(err)
	}
	tupleBytes, _ := os.ReadFile(tp)
	listBytes, _ := os.ReadFile(lp)

	stats := &IOStats{}
	tf, err := OpenTupleFile(tp, stats, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	lf, err := OpenListFile(lp, stats, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()

	const scratchBytes = 100 // 8 whole postings; records straddle it
	scratch := make([]byte, scratchBytes)
	// pieces collects what a copy hands over and fails on a piece that is
	// not scratch-sized unless it is the last.
	pieces := func(what string, size int) (fn func([]byte), got func() []byte) {
		var all []byte
		var short int
		fn = func(raw []byte) {
			if short > 0 {
				t.Fatalf("%s: a %d-byte piece followed a short one of %d", what, len(raw), short)
			}
			if len(raw) < size {
				short = len(raw)
			} else if len(raw) > size {
				t.Fatalf("%s: a %d-byte piece through %d bytes of scratch", what, len(raw), size)
			}
			all = append(all, raw...)
		}
		return fn, func() []byte { return all }
	}
	for trial := 0; trial < 50; trial++ {
		from := rng.Intn(n + 1)
		to := from + rng.Intn(n+1-from)
		fn, got := pieces(fmt.Sprintf("records [%d,%d)", from, to), scratchBytes)
		if err := tf.RawRecords(from, to, scratch, fn); err != nil {
			t.Fatal(err)
		}
		want := 0
		for id := from; id < to; id++ {
			want += tf.RecordSize(id)
		}
		var lo int64
		if from < n {
			lo, _ = tf.span(from)
		}
		if !slices.Equal(got(), tupleBytes[lo:lo+int64(want)]) {
			t.Fatalf("records [%d,%d): %d bytes, want the file's %d at %d", from, to, len(got()), want, lo)
		}
	}
	for d := 0; d < m; d++ {
		fn, got := pieces(fmt.Sprintf("dim %d", d), scratchBytes-scratchBytes%postingBytes)
		if err := lf.RawPostings(d, scratch, fn); err != nil {
			t.Fatal(err)
		}
		ext := lf.dir[d]
		if !slices.Equal(got(), listBytes[ext.off:ext.off+int64(ext.count*postingBytes)]) {
			t.Fatalf("dim %d: raw postings differ from the file's extent", d)
		}
	}
	// A copy spliced from raw stretches and re-encoded records.
	cut := n / 3
	out := filepath.Join(dir, "copy.dat")
	err = WriteTupleRecords(out, n, m, tf.RecordSize, func(sink *TupleSink) error {
		if err := tf.RawRecords(0, cut, scratch, sink.Raw); err != nil {
			return err
		}
		for id := cut; id < 2*cut; id++ {
			sink.Tuple(tuples[id])
		}
		return tf.RawRecords(2*cut, n, scratch, sink.Raw)
	})
	if err != nil {
		t.Fatal(err)
	}
	if copied, _ := os.ReadFile(out); !slices.Equal(copied, tupleBytes) {
		t.Fatal("the spliced tuple file differs from the original")
	}
	if err := tf.RawRecords(0, n, nil, func([]byte) {}); err == nil {
		t.Fatal("a read through no scratch succeeded")
	}
	if err := tf.RawRecords(3, n+1, make([]byte, 64), func([]byte) {}); err == nil {
		t.Fatal("a record range past the file accepted")
	}
	if seq, rnd, by := stats.Snapshot(); seq != 0 || rnd != 0 || by != 0 || stats.Bypasses() != 0 {
		t.Fatalf("raw copies charged the meter: %v bypass=%d", stats, stats.Bypasses())
	}
}

// TestWriteTupleRecordsRejectsWrongSizes: records that do not take the
// bytes the offsets table was built from are refused, and the file
// whose offsets would lie is removed.
func TestWriteTupleRecordsRejectsWrongSizes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tuples.dat")
	err := WriteTupleRecords(path, 2, 3, func(int) int { return 4 }, func(out *TupleSink) error {
		out.Tuple(nil)
		out.Tuple(vec.Sparse{{Dim: 1, Val: 0.5}})
		return nil
	})
	if err == nil {
		t.Fatal("a record longer than its promised size accepted")
	}
	if _, serr := os.Stat(path); !os.IsNotExist(serr) {
		t.Fatalf("refused file still exists (stat: %v)", serr)
	}
}

// TestListCursorAheadIsNext: at every position of a list three pages
// long, Ahead reports exactly the ids the following Next calls return,
// from any offset and up to the end of the current page, and never more
// than asked; it charges no page and no bypass, on every build.
func TestListCursorAheadIsNext(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	const n, perPage = 800, PageSize / postingBytes
	postings := make([]Posting, n)
	for i, id := range rng.Perm(n) {
		postings[i] = Posting{ID: id, Val: 1 - float64(i)/(n+1)}
	}
	path := filepath.Join(t.TempDir(), "lists.dat")
	if err := writeListMap(path, map[int][]Posting{0: postings}, 1); err != nil {
		t.Fatal(err)
	}
	stats := &IOStats{}
	lf, err := OpenListFile(path, stats, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	cur := lf.Cursor(0)
	dst := make([]int32, 40)
	for pos := 0; pos < n; pos++ {
		if got := cur.Ahead(0, dst); pos%perPage == 0 && got != 0 {
			t.Fatalf("position %d: Ahead saw %d ids of a page not read yet", pos, got)
		}
		cur.Peek() // reads the page a new one starts
		before := [2]int64{stats.SeqPages(), stats.Bypasses()}
		from, want := rng.Intn(30), 1+rng.Intn(len(dst))
		got := cur.Ahead(from, dst[:want])
		pageEnd := min((pos/perPage+1)*perPage, n)
		if wantN := max(0, min(want, pageEnd-pos-from)); got != wantN {
			t.Fatalf("position %d: Ahead(%d, %d ids) = %d, want %d", pos, from, want, got, wantN)
		}
		for i, id := range dst[:got] {
			if p := postings[pos+from+i]; int(id) != p.ID {
				t.Fatalf("position %d: Ahead(%d)[%d] = %d, Next will return %d", pos, from, i, id, p.ID)
			}
		}
		if now := [2]int64{stats.SeqPages(), stats.Bypasses()}; now != before {
			t.Fatalf("position %d: Ahead moved the meter from %v to %v", pos, before, now)
		}
		if p, ok := cur.Next(); !ok || p != postings[pos] {
			t.Fatalf("position %d: Next = %v, %v", pos, p, ok)
		}
	}
	if got := cur.Ahead(0, dst); got != 0 {
		t.Fatalf("Ahead at the list end saw %d ids", got)
	}
}

// TestPrefetchChargesNothing: Prefetch moves no counter of the meter,
// skips ids out of range and records a corrupt offsets table places
// outside the file — the real access refuses those with an error, not a
// panic — and touches the bytes of the records it is given.
func TestPrefetchChargesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	const n, m = 200, 10
	tuples := randTuples(rng, n, m)
	path := filepath.Join(t.TempDir(), "tuples.dat")
	if err := WriteTupleFile(path, tuples, m); err != nil {
		t.Fatal(err)
	}
	// Tuple 5's record starts past the file, tuple 9's ends before it
	// starts (its successor's offset is below its own).
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var off [8]byte
	binary.LittleEndian.PutUint64(off[:], 1<<40)
	if _, err := f.WriteAt(off[:], 16+8*5); err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(off[:], 16)
	if _, err := f.WriteAt(off[:], 16+8*10); err != nil {
		t.Fatal(err)
	}
	f.Close()
	stats := &IOStats{}
	tf, err := OpenTupleFile(path, stats, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()

	ids := []int32{-1, n, 1 << 30}
	for id := range n {
		ids = append(ids, int32(id))
	}
	valid := tf.Prefetch(ids[3:5])
	all := tf.Prefetch(ids)
	if bad := tf.Prefetch([]int32{-1, n, 5, 9}); bad != 0 {
		t.Fatalf("Prefetch of ids and records outside the file touched bytes (sum %d)", bad)
	}
	if valid == 0 || all <= valid {
		t.Fatalf("Prefetch touched bytes summing to %d and %d", valid, all)
	}
	if seq, rnd, bytes := stats.Snapshot(); seq != 0 || rnd != 0 || bytes != 0 || stats.Bypasses() != 0 {
		t.Fatalf("Prefetch charged the meter: %v bypass=%d", stats, stats.Bypasses())
	}
	for _, id := range []int{5, 9} {
		if _, err := tf.GetWith(id, nil); err == nil {
			t.Fatalf("tuple %d, whose record lies outside the file, read without error", id)
		}
	}
}

// TestTupleRecordEncodings: records on both sides of the dense/sparse
// switch — every nnz from 0 to m, m ∈ {1, 2, 3, 20, 64} — and sparse
// records at both dim widths — m = 65 536, the last with 2-byte dims,
// and m = 65 537, the first with 4-byte ones, where no record is dense —
// read back as written (GetWith), project exactly as
// vec.Query.ProjectInto does, on dimensions inside and past m
// (ProjectWith), and take RecordBytes each. A dense record whose
// non-zero slots disagree with its nnz, either way, fails GetWith as
// corrupt.
func TestTupleRecordEncodings(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, m := range []int{1, 2, 3, 20, 64, 1 << 16, 1<<16 + 1} {
		large := m > 64
		var counts []int
		for nnz := 0; nnz <= m && (!large || nnz <= 12); nnz++ {
			counts = append(counts, nnz)
		}
		if large {
			counts = append(counts, 300)
		}
		var tuples []vec.Sparse
		var kinds [2]int // sparse, dense
		for _, nnz := range counts {
			for rep := range 3 {
				dims := rng.Perm(m)[:nnz]
				if large && nnz > 1 && rep == 0 {
					dims[0], dims[1] = 0, m-1 // the widest id the record holds
				}
				sort.Ints(dims)
				tu := make(vec.Sparse, nnz)
				for i, d := range dims {
					tu[i] = vec.Entry{Dim: d, Val: 1 - rng.Float64()}
				}
				tuples = append(tuples, tu)
			}
			if dense(nnz, m) {
				kinds[1]++
			} else {
				kinds[0]++
			}
		}
		if kinds[0] == 0 || (kinds[1] == 0) != large {
			t.Fatalf("m=%d: %d sparse and %d dense nnz values", m, kinds[0], kinds[1])
		}
		if w := map[int]int{1 << 16: 2, 1<<16 + 1: 4}[m]; large && RecordBytes(300, m) != 4+(w+8)*300 {
			t.Fatalf("m=%d: a 300-entry record takes %d bytes, want %d-byte dims", m, RecordBytes(300, m), w)
		}
		path := filepath.Join(t.TempDir(), fmt.Sprintf("m%d.dat", m))
		if err := WriteTupleFile(path, tuples, m); err != nil {
			t.Fatal(err)
		}
		n := len(tuples)
		want := int64(16 + 8*n + trailerSize)
		for _, tu := range tuples {
			want += int64(RecordBytes(len(tu), m))
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() != want {
			t.Fatalf("m=%d: file of %d bytes, want %d", m, info.Size(), want)
		}
		tf, err := OpenTupleFile(path, &IOStats{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for id, tu := range tuples {
			got, err := tf.GetWith(id, nil)
			if err != nil || !slices.Equal(got, tu) {
				t.Fatalf("m=%d tuple %d (nnz %d): GetWith %v, %v; want %v", m, id, len(tu), got, err, tu)
			}
			var dims []int
			if large {
				// The tuple's own dims, interleaved with ones it lacks.
				for _, e := range tu {
					dims = append(dims, e.Dim)
				}
				dims = append(dims, rng.Intn(m), m, m+2)
				slices.Sort(dims)
				dims = slices.Compact(dims)
			} else {
				dims = rng.Perm(m + 3)[:1+rng.Intn(m+3)]
				sort.Ints(dims)
			}
			wantProj, gotProj := make([]float64, len(dims)), make([]float64, len(dims))
			vec.Query{Dims: dims}.ProjectInto(tu, wantProj)
			for i := range gotProj {
				gotProj[i] = -1
			}
			if err := tf.ProjectWith(id, dims, gotProj, nil); err != nil || !slices.Equal(gotProj, wantProj) {
				t.Fatalf("m=%d tuple %d on %v: ProjectWith %v, %v; want %v", m, id, dims, gotProj, err, wantProj)
			}
		}
		if large {
			tf.Close()
			continue
		}
		// The last two tuples are full, so dense: empty one's first slot,
		// and claim one entry more than the other holds.
		emptied, overclaimed := n-1, n-2
		at, _ := tf.span(emptied)
		claim, _ := tf.span(overclaimed)
		tf.Close()
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(make([]byte, 8), at+4); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(binary.LittleEndian.AppendUint32(nil, uint32(m+1)), claim); err != nil {
			t.Fatal(err)
		}
		f.Close()
		bad, err := OpenTupleFile(path, &IOStats{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []int{emptied, overclaimed} {
			if _, err := bad.GetWith(id, nil); err == nil || !strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("m=%d tuple %d: a dense record with a wrong count read as %v", m, id, err)
			}
		}
		bad.Close()
	}
}

// TestTupleRecordWrongExtent: a sparse record whose nnz is lowered by
// one — its extent then exceeds RecordBytes(nnz, m), and a reader that
// trusted nnz would take dim bytes for values — fails both GetWith and
// ProjectWith as corrupt, at both dim widths; so does one whose nnz is
// raised. Its neighbours still read.
func TestTupleRecordWrongExtent(t *testing.T) {
	for _, m := range []int{64, 1<<16 + 1} {
		tuples := []vec.Sparse{
			{{Dim: 1, Val: 0.5}, {Dim: 7, Val: 0.25}, {Dim: 40, Val: 1}},
			{{Dim: 2, Val: 0.75}, {Dim: 9, Val: 0.5}, {Dim: 63, Val: 0.125}},
			{{Dim: 3, Val: 1}},
		}
		path := filepath.Join(t.TempDir(), "tuples.dat")
		if err := WriteTupleFile(path, tuples, m); err != nil {
			t.Fatal(err)
		}
		tf, err := OpenTupleFile(path, &IOStats{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		lowered, _ := tf.span(0)
		raised, _ := tf.span(1)
		tf.Close()
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []struct {
			at  int64
			nnz uint32
		}{{lowered, 2}, {raised, 4}} {
			if _, err := f.WriteAt(binary.LittleEndian.AppendUint32(nil, w.nnz), w.at); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
		bad, err := OpenTupleFile(path, &IOStats{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]float64, 2)
		for id := range 2 {
			if _, err := bad.GetWith(id, nil); err == nil || !strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("m=%d tuple %d: GetWith of a record with a wrong nnz returned %v", m, id, err)
			}
			if err := bad.ProjectWith(id, []int{1, 7}, dst, nil); err == nil || !strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("m=%d tuple %d: ProjectWith of a record with a wrong nnz returned %v", m, id, err)
			}
		}
		if got, err := bad.GetWith(2, nil); err != nil || !slices.Equal(got, tuples[2]) {
			t.Fatalf("m=%d: the intact record read as %v, %v", m, got, err)
		}
		bad.Close()
	}
}

// TestTupleSinkRejectsInvalid: the tuple writer refuses, with an error
// and no file left behind, every vector the data model does not admit —
// the dense encoding would lose a 0 and cannot place a dimension past m —
// and keeps writing nil and empty records, which deleted ids need.
func TestTupleSinkRejectsInvalid(t *testing.T) {
	const m = 4
	ok := vec.Sparse{{Dim: 0, Val: 0.5}, {Dim: 3, Val: 1}}
	for _, c := range []struct {
		name string
		t    vec.Sparse
	}{
		{"zero-value", vec.Sparse{{Dim: 1, Val: 0}}},
		{"negative-value", vec.Sparse{{Dim: 1, Val: -0.5}}},
		{"value-above-one", vec.Sparse{{Dim: 1, Val: 1.5}}},
		{"nan-value", vec.Sparse{{Dim: 1, Val: math.NaN()}}},
		{"unsorted-dims", vec.Sparse{{Dim: 2, Val: 0.5}, {Dim: 1, Val: 0.5}}},
		{"duplicate-dim", vec.Sparse{{Dim: 1, Val: 0.5}, {Dim: 1, Val: 0.25}}},
		{"negative-dim", vec.Sparse{{Dim: -1, Val: 0.5}}},
		{"dim-past-m", vec.Sparse{{Dim: 1, Val: 0.5}, {Dim: m, Val: 0.5}}},
		{"dense-dim-past-m", vec.Sparse{{Dim: 0, Val: 0.5}, {Dim: 1, Val: 0.5}, {Dim: 2, Val: 0.5}, {Dim: m, Val: 0.5}}},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "tuples.dat")
			if err := WriteTupleFile(path, []vec.Sparse{ok, c.t}, m); err == nil {
				t.Fatalf("%v written", c.t)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("refused file still exists (stat: %v)", err)
			}
		})
	}
	path := filepath.Join(t.TempDir(), "tuples.dat")
	if err := WriteTupleFile(path, []vec.Sparse{nil, ok, {}}, m); err != nil {
		t.Fatalf("empty records refused: %v", err)
	}
}
