package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
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

// TestReadAtEdgeCases pins the readAt contract (the pread every list
// page and bulk copy goes through) at the boundaries: reads straddling
// the final partial page, zero-length reads (in bounds and at EOF),
// reads ending exactly at EOF, and out-of-bounds rejections.
func TestReadAtEdgeCases(t *testing.T) {
	size := PageSize + 100 // final page is partial
	path, content := writeRaw(t, size)
	p, err := openPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	check := func(name string, off int64, n int) {
		t.Helper()
		dst := make([]byte, n)
		if err := p.readAt(off, dst); err != nil {
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

	if err := p.readAt(int64(size)-10, make([]byte, 20)); err == nil {
		t.Fatal("read past EOF accepted")
	}
	if err := p.readAt(int64(size)+1, nil); err == nil {
		t.Fatal("zero-length read past EOF accepted")
	}
	if err := p.readAt(-1, make([]byte, 1)); err == nil {
		t.Fatal("negative offset accepted")
	}
}

// TestPagerSlice proves the zero-copy view agrees byte-for-byte with
// the file and refuses, rather than clamps, a range outside it.
func TestPagerSlice(t *testing.T) {
	size := 3*PageSize + 17
	path, content := writeRaw(t, size)
	p, err := NewPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	sl, ok := p.Slice(PageSize-5, 40)
	if !ok {
		t.Fatal("an in-bounds slice was refused")
	}
	if !bytes.Equal(sl, content[PageSize-5:PageSize+35]) {
		t.Fatal("slice content mismatch")
	}
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

// TestNewPagerFailsUnmappable: a file that cannot be mapped fails the
// open instead of being served some other way.
func TestNewPagerFailsUnmappable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.dat")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if p, err := NewPager(path); err == nil {
		p.Close()
		t.Fatal("an empty file opened without a mapping")
	}
	if _, err := OpenTupleFile(path, &IOStats{}, 0); err == nil {
		t.Fatal("an empty tuple file opened")
	}
}

// TestCatchFault: a read of a mapped page the file no longer backs (it
// was cut short under the open pager) comes back from CatchFault as an
// error naming the file and the offset, while the rest of the page the
// cut falls in reads as zeros; any other panic goes on; a
// closed pager's range is no longer claimed.
func TestCatchFault(t *testing.T) {
	path, _ := writeRaw(t, 4*PageSize)
	p, err := NewPager(path)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := os.Truncate(path, PageSize+100); err != nil {
		t.Fatal(err)
	}
	read := func(b []byte) (v byte, err error) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		defer CatchFault(&err)
		return b[0], nil
	}
	raw, _ := p.Slice(2*PageSize+8, 1)
	if _, err := read(raw); err == nil || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), fmt.Sprint("offset ", 2*PageSize+8)) {
		t.Fatalf("a read past the cut: %v, want the fault as an error naming the file and offset", err)
	}
	if v, err := read(p.mapped[:1]); err != nil || v != p.mapped[0] {
		t.Fatalf("a read before the cut: %v, %v", v, err)
	}
	// Past the new end on the page the cut falls in, bytes read as zeros.
	if v, err := read(p.mapped[PageSize+200:]); err != nil || v != 0 {
		t.Fatalf("a read past the cut on its own page: %v, %v, want 0 and no fault", v, err)
	}
	repanics := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: CatchFault swallowed the panic", name)
			}
		}()
		fn()
	}
	repanics("plain panic", func() {
		var err error
		defer CatchFault(&err)
		panic("not a fault")
	})
	repanics("index out of range", func() {
		_, _ = read(nil)
	})
	q, err := NewPager(path)
	if err != nil {
		t.Fatal(err)
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(q.mapped)))
	registered := func() bool {
		mappings.Lock()
		defer mappings.Unlock()
		return slices.ContainsFunc(mappings.live, func(m mapping) bool { return m.lo == lo })
	}
	if !registered() {
		t.Fatal("a live mapping is not registered")
	}
	q.Close()
	if registered() {
		t.Fatal("a closed pager's mapping is still registered")
	}

	// Opens, faults and closes on several goroutines share the registry.
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, err := NewPager(path)
			if err != nil {
				t.Error(err)
				return
			}
			defer q.Close()
			if _, err := read(p.mapped[3*PageSize:]); err == nil {
				t.Error("a read past the cut did not fault")
			}
		}()
	}
	wg.Wait()
}

// TestBypassAccounting: every tuple-record read is served from the
// mapping, so the bypass counter moves with the random reads, one for
// one, through child meters too.
func TestBypassAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	tuples := randTuples(rng, 300, 8)
	dir := t.TempDir()
	tp := filepath.Join(dir, "tuples.dat")
	if err := WriteTupleFile(tp, tuples, 8); err != nil {
		t.Fatal(err)
	}
	stats := &IOStats{}
	tf, err := OpenTupleFile(tp, stats, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	for id := 0; id < 300; id++ {
		if _, err := tf.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	if stats.RandReads() != 300 || stats.Bypasses() != stats.RandReads() {
		t.Fatalf("rand reads = %d, bypasses = %d, want 300 of each", stats.RandReads(), stats.Bypasses())
	}

	// Child meters forward bypass charges to the parent.
	child := stats.Child()
	if _, err := tf.GetWith(0, child); err != nil {
		t.Fatal(err)
	}
	if child.Bypasses() != 1 || stats.Bypasses() != 301 {
		t.Fatalf("child bypass forwarding: child=%d parent=%d", child.Bypasses(), stats.Bypasses())
	}
	stats.Reset()
	if stats.Bypasses() != 0 {
		t.Fatal("Reset did not clear bypass counter")
	}
}

// TestListCursorMappedAccounting pins the deterministic sequential-page
// model of a list scan: one page per fill (341 postings), matching the
// in-memory index's charge, and no bypass — the list file is read with
// pread, never mapped. A released cursor hands its page
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
	lf, err := OpenListFile(path, stats, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	if lf.pager.mapped != nil {
		t.Fatal("the list file is mapped")
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
