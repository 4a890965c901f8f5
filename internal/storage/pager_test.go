package storage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// writeRaw persists a deterministic pseudo-random blob of n bytes and
// returns its content.
func writeRaw(t *testing.T, n int) (string, []byte) {
	t.Helper()
	content := make([]byte, n)
	rand.New(rand.NewSource(int64(n))).Read(content)
	path := filepath.Join(t.TempDir(), "raw.dat")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, content
}

// TestReadRangeEdgeCases pins the ReadRange contract at the boundaries:
// reads straddling the final partial page, zero-length reads (in bounds
// and at EOF), reads ending exactly at EOF, and out-of-bounds rejections.
func TestReadRangeEdgeCases(t *testing.T) {
	size := PageSize + 100 // final page is partial
	path, content := writeRaw(t, size)
	p, err := NewPager(path, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	check := func(name string, off int64, n int) {
		t.Helper()
		dst := make([]byte, n)
		if _, err := p.ReadRange(off, dst); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(dst, content[off:off+int64(n)]) {
			t.Fatalf("%s: content mismatch", name)
		}
	}
	check("straddle final partial page", PageSize-50, 100)
	check("entirely inside final partial page", PageSize+10, 50)
	check("read ending exactly at EOF", int64(size-10), 10)
	check("full file", 0, size)
	check("zero-length at 0", 0, 0)
	check("zero-length mid-file", 123, 0)
	check("zero-length exactly at EOF", int64(size), 0)

	if _, err := p.ReadRange(int64(size)-10, make([]byte, 20)); err == nil {
		t.Fatal("read past EOF accepted")
	}
	if _, err := p.ReadRange(int64(size)+1, nil); err == nil {
		t.Fatal("zero-length read past EOF accepted")
	}
	if _, err := p.ReadRange(-1, make([]byte, 1)); err == nil {
		t.Fatal("negative offset accepted")
	}
}

// TestPagerSlice proves the zero-copy view agrees byte-for-byte with
// ReadRange when mapped, and that the fallback build reports ok=false
// consistently (this branch is what -tags=nommap CI exercises).
func TestPagerSlice(t *testing.T) {
	size := 3*PageSize + 17
	path, content := writeRaw(t, size)
	p, err := NewPager(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if p.Mapped() != mmapEnabled {
		t.Fatalf("Mapped() = %v, build says mmapEnabled=%v", p.Mapped(), mmapEnabled)
	}
	sl, ok := p.Slice(PageSize-5, 40)
	if !mmapEnabled {
		if ok {
			t.Fatal("fallback build returned a mapped slice")
		}
		return
	}
	if !ok {
		t.Fatal("mapped build refused an in-bounds slice")
	}
	if !bytes.Equal(sl, content[PageSize-5:PageSize+35]) {
		t.Fatal("slice content mismatch")
	}
	// Out-of-bounds requests must be refused, not clamped.
	if _, ok := p.Slice(int64(size)-10, 11); ok {
		t.Fatal("slice past EOF accepted")
	}
	if _, ok := p.Slice(-1, 4); ok {
		t.Fatal("negative-offset slice accepted")
	}
	if sl, ok := p.Slice(int64(size), 0); !ok || len(sl) != 0 {
		t.Fatal("empty slice at EOF should be valid")
	}
}

// TestBypassAccounting checks that the mapped build counts pool-bypass
// accesses while charging identical logical I/O to the fallback path.
func TestBypassAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	tuples := randTuples(rng, 300, 8)
	dir := t.TempDir()
	tp := filepath.Join(dir, "tuples.dat")
	if err := WriteTupleFile(tp, tuples, 8); err != nil {
		t.Fatal(err)
	}
	stats := &IOStats{}
	tf, err := OpenTupleFile(tp, stats, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	for id := 0; id < 300; id++ {
		if _, err := tf.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	if stats.RandReads() != 300 {
		t.Fatalf("rand reads = %d, want 300 regardless of transport", stats.RandReads())
	}
	if mmapEnabled {
		if stats.Bypasses() != 300 {
			t.Fatalf("bypasses = %d, want 300 on the mapped build", stats.Bypasses())
		}
	} else if stats.Bypasses() != 0 {
		t.Fatalf("bypasses = %d, want 0 on the fallback build", stats.Bypasses())
	}

	// Child meters forward bypass charges to the parent.
	child := stats.Child()
	if _, err := tf.GetWith(0, child); err != nil {
		t.Fatal(err)
	}
	if mmapEnabled && (child.Bypasses() != 1 || stats.Bypasses() != 301) {
		t.Fatalf("child bypass forwarding: child=%d parent=%d", child.Bypasses(), stats.Bypasses())
	}
	stats.Reset()
	if stats.Bypasses() != 0 {
		t.Fatal("Reset did not clear bypass counter")
	}
}

// TestListCursorMappedAccounting pins the deterministic sequential-page
// model of a list scan on every build: one page per fill (341
// postings), matching the in-memory index's charge, and no pool bypass —
// the list file is read, never mapped, and never goes near the pool
// whatever size OpenListFile is handed. A released cursor hands its page
// buffer back and a clone reads through its own.
func TestListCursorMappedAccounting(t *testing.T) {
	const n = 700 // ceil(700/341) = 3 fills
	postings := make([]Posting, n)
	for i := range postings {
		postings[i] = Posting{ID: i, Val: 1 - float64(i)/(n+1)}
	}
	path := filepath.Join(t.TempDir(), "lists.dat")
	if err := writeListMap(path, map[int][]Posting{0: postings}, 1); err != nil {
		t.Fatal(err)
	}
	stats := &IOStats{}
	lf, err := OpenListFile(path, stats, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	if lf.pager.Mapped() || lf.pager.pool != nil {
		t.Fatalf("list file mapped=%v, pooled=%v", lf.pager.Mapped(), lf.pager.pool != nil)
	}
	if seq, rnd, by := stats.Snapshot(); seq != 0 || rnd != 0 || by != 0 {
		t.Fatalf("opening the file charged the meter: %v", stats)
	}
	cur := lf.Cursor(0)
	var clone *ListCursor
	for i := 0; ; i++ {
		if i == 400 { // mid second page
			clone = cur.CloneCursor()
			if clone.page == cur.page {
				t.Fatal("the clone reads through its parent's page buffer")
			}
		}
		p, ok := cur.Next()
		if !ok {
			break
		}
		if p != postings[i] {
			t.Fatalf("posting %d = %v, want %v", i, p, postings[i])
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if got := stats.SeqPages(); got != 3 {
		t.Fatalf("scan seq pages = %d, want 3 (one per fill)", got)
	}
	if got := stats.Bypasses(); got != 0 {
		t.Fatalf("scan bypasses = %d, want 0", got)
	}
	for i := 400; i < n; i++ {
		if p, ok := clone.Next(); !ok || p != postings[i] {
			t.Fatalf("clone posting %d = %v, %v, want %v", i, p, ok, postings[i])
		}
	}
	if got := stats.SeqPages(); got != 4 {
		t.Fatalf("after the clone's scan seq pages = %d, want 4 (its own third page only)", got)
	}
	for _, c := range []*ListCursor{cur, clone} {
		c.Release()
		c.Release() // idempotent
		if c.page != nil || c.raw != nil {
			t.Fatal("a released cursor still holds its page")
		}
	}
}
