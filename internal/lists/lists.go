// Package lists provides the per-dimension inverted-list index of the
// paper's system model (§3): for each dimension j an inverted list Lj of
// 〈tuple, coordinate〉 entries sorted by descending coordinate, plus
// random access to full tuples through an external file. Two
// implementations share one interface: MemIndex keeps everything in
// memory while still metering logical I/O (the paper's CPU charts stand
// in for the memory-resident setting, §7.1), and DiskIndex reads the
// storage package's on-disk formats.
//
// # Mutability and overlay merge rules
//
// MemIndex and DiskIndex are read-only. The write path
// (Insert/Update/Delete) has one implementation, Overlay, which makes
// either writable without writing to it: it layers (1) delta posting
// lists, merged into every cursor in the order BuildPostings would
// produce (descending value, ties by ascending id), (2) a tombstone set
// hiding base postings of changed or deleted ids, and (3) an id-stable
// tuple override table.
// The merge invariants: a base id is either served from the base or
// tombstoned and re-inserted as a delta — never both; insert ids
// continue the base numbering and only advance on success (which is
// what makes WAL replay reproduce id assignment exactly); a deleted id
// stays allocated forever (its slot reads as an empty tuple).
// A checkpoint folds the merged view back into files without leaving
// that order: Freeze copies the delta (not the base), SaveIndex streams
// the base files through it. DeltaStats measures the overlay's
// in-memory footprint incrementally.
//
// # Concurrency model
//
// Reads are safe for any number of concurrent queries; only the atomic
// I/O meter is written. Mutations are NOT internally synchronized —
// the engine serializes them against queries under its RWMutex (see
// internal/engine's lock ordering). Cursors are single-query state and
// are not safe for sharing — each query (or each member view of a fused
// scan) opens or Clones its own. WithStats derives a view of the index
// whose accesses are charged to a separate meter; a concurrent server
// gives each query a view over a PerQuery meter of the shared one, so
// per-query deltas stay exact and the global counters take each query's
// totals when it ends (storage.IOStats).
package lists

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/storage"
	"repro/internal/vec"
)

// Cursor provides sorted access to one inverted list, top (highest
// coordinate) downward.
type Cursor interface {
	// Peek returns the next posting without consuming it.
	Peek() (storage.Posting, bool)
	// Next consumes and returns the next posting.
	Next() (storage.Posting, bool)
	// Err returns the read failure that stopped the cursor, if any: Peek
	// and Next then report ok=false, which is not the end of the list.
	Err() error
	// Consumed reports how many postings have been consumed.
	Consumed() int
	// Clone returns an independent cursor at the same position, so a
	// member view of a fused scan can resume from here without disturbing
	// the original.
	Clone() Cursor
	// Release hands back what the cursor holds to read with (a disk
	// cursor's page buffer). The scan that opened or cloned the cursor
	// calls it when the scan is released.
	Release()
}

// Index is the query-facing view of a dataset: sorted access per
// dimension and counted random access to tuples.
type Index interface {
	// NumTuples returns the dataset cardinality n.
	NumTuples() int
	// Dim returns the dimensionality m.
	Dim() int
	// ListLen returns the length of dimension dim's inverted list.
	ListLen(dim int) int
	// Cursor opens a fresh sorted-access cursor on dimension dim.
	Cursor(dim int) Cursor
	// Tuple fetches the full vector of tuple id (one random I/O).
	Tuple(id int) vec.Sparse
	// Project is the same random I/O without the vector: it writes tuple
	// id's coordinates on dims (ascending) into dst, as
	// vec.Query.ProjectInto(Tuple(id), dst) would, charging exactly what
	// Tuple charges. Empty dims pay the access and read nothing — the
	// Phase-2 fetch of a candidate whose projection the scan already holds.
	// A failed read is returned, and fails the query that made it.
	// A wrapper that overrides Tuple must override Project with it.
	Project(id int, dims []int, dst []float64) error
	// Stats exposes the I/O meter all accesses are charged to.
	Stats() *storage.IOStats
	// WithStats returns a view of the same index whose accesses are
	// charged to st instead. The underlying data is shared.
	WithStats(st *storage.IOStats) Index
}

// postingsPerPage is how many inverted-list entries fit in one I/O page.
const postingsPerPage = storage.PageSize / 12

// PostingList is one inverted list in columnar (struct-of-arrays) form:
// IDs[i] and Vals[i] are the i-th posting, sorted by descending value
// with ties broken by ascending id. Separating the two arrays keeps the
// value array dense for the sorted-access hot loop (8 B/entry streamed
// instead of 16 B interleaved).
type PostingList struct {
	IDs  []int32
	Vals []float64
}

// Len returns the number of postings.
func (pl PostingList) Len() int { return len(pl.IDs) }

// At materializes the i-th posting in row form.
func (pl PostingList) At(i int) storage.Posting {
	return storage.Posting{ID: int(pl.IDs[i]), Val: pl.Vals[i]}
}

// BuildPostings constructs the per-dimension inverted lists for tuples in
// row form: every stored coordinate yields a posting; lists are sorted by
// descending value with ties broken by ascending tuple id (deterministic
// TA traces). All lists share one allocation.
func BuildPostings(tuples []vec.Sparse) map[int][]storage.Posting {
	b := carve(tuples)
	b.sortAll()
	rows := make([]storage.Posting, len(b.keys))
	for i, k := range b.keys {
		rows[i] = storage.Posting{ID: int(b.ids[i]), Val: keyValue(k)}
	}
	out := make(map[int][]storage.Posting, len(b.dims))
	for i, d := range b.dims {
		lo, hi := b.off[i], b.off[i+1]
		out[d] = rows[lo:hi:hi]
	}
	return out
}

// BuildColumnar constructs the per-dimension inverted lists directly in
// the columnar layout MemIndex serves from, in BuildPostings' order. The
// lists are carved from one allocation per column.
func BuildColumnar(tuples []vec.Sparse) map[int]PostingList {
	b := carve(tuples)
	b.sortAll()
	vals := make([]float64, len(b.keys))
	for i, k := range b.keys {
		vals[i] = keyValue(k)
	}
	out := make(map[int]PostingList, len(b.dims))
	for i, d := range b.dims {
		lo, hi := b.off[i], b.off[i+1]
		out[d] = PostingList{IDs: b.ids[lo:hi:hi], Vals: vals[lo:hi:hi]}
	}
	return out
}

// MemIndex is an in-memory Index. Logical I/O is still metered: cursors
// charge one sequential page per postingsPerPage entries consumed, and
// Tuple charges one random read — so experiment I/O counts are identical
// to the disk-backed path.
type MemIndex struct {
	tuples []vec.Sparse
	lists  map[int]PostingList
	m      int
	stats  *storage.IOStats
}

// NewMemIndex builds an in-memory index over tuples in [0,1]^m. The
// index reads tuples in place and never writes them.
func NewMemIndex(tuples []vec.Sparse, m int) *MemIndex {
	return &MemIndex{
		tuples: tuples,
		lists:  BuildColumnar(tuples),
		m:      m,
		stats:  &storage.IOStats{},
	}
}

// NumTuples returns the dataset cardinality.
func (ix *MemIndex) NumTuples() int { return len(ix.tuples) }

// Dim returns the dimensionality m.
func (ix *MemIndex) Dim() int { return ix.m }

// ListLen returns the length of dim's inverted list.
func (ix *MemIndex) ListLen(dim int) int { return ix.lists[dim].Len() }

// Stats returns the I/O meter.
func (ix *MemIndex) Stats() *storage.IOStats { return ix.stats }

// WithStats returns a view over the same data charging st.
func (ix *MemIndex) WithStats(st *storage.IOStats) Index {
	cp := *ix
	cp.stats = st
	return &cp
}

// Cursor opens a sorted-access cursor on dim.
func (ix *MemIndex) Cursor(dim int) Cursor {
	pl := ix.lists[dim]
	return &memCursor{ids: pl.IDs, vals: pl.Vals, stats: ix.stats}
}

// Tuple fetches a tuple, charging one random read.
func (ix *MemIndex) Tuple(id int) vec.Sparse {
	t := ix.tuples[id]
	ix.stats.AddRandRead(storage.RecordBytes(len(t), ix.m))
	return t
}

// Project charges Tuple's random read and projects from memory.
func (ix *MemIndex) Project(id int, dims []int, dst []float64) error {
	projectMem(ix.tuples[id], ix.m, dims, dst, ix.stats)
	return nil
}

// projectMem is Project over a memory-resident tuple, charged like its
// record in a tuple file of dimensionality m.
func projectMem(t vec.Sparse, m int, dims []int, dst []float64, st *storage.IOStats) {
	st.AddRandRead(storage.RecordBytes(len(t), m))
	vec.Query{Dims: dims}.ProjectInto(t, dst)
}

// Postings materializes the raw list of a dimension in row form; used by
// dataset statistics and tests, not the query path.
func (ix *MemIndex) Postings(dim int) []storage.Posting {
	pl := ix.lists[dim]
	out := make([]storage.Posting, pl.Len())
	for i := range out {
		out[i] = pl.At(i)
	}
	return out
}

type memCursor struct {
	ids   []int32
	vals  []float64
	stats *storage.IOStats
	pos   int
}

func (c *memCursor) Peek() (storage.Posting, bool) {
	if c.pos >= len(c.ids) {
		return storage.Posting{}, false
	}
	return storage.Posting{ID: int(c.ids[c.pos]), Val: c.vals[c.pos]}, true
}

func (c *memCursor) Next() (storage.Posting, bool) {
	p, ok := c.Peek()
	if !ok {
		return storage.Posting{}, false
	}
	if c.pos%postingsPerPage == 0 {
		c.stats.AddSeqPage(1)
	}
	c.pos++
	return p, true
}

func (c *memCursor) Consumed() int { return c.pos }
func (c *memCursor) Err() error    { return nil }
func (c *memCursor) Release()      {}

func (c *memCursor) Clone() Cursor {
	cp := *c
	return &cp
}

// DiskIndex is the disk-backed Index over the storage package's tuple and
// list files.
type DiskIndex struct {
	tf    *storage.TupleFile
	lf    *storage.ListFile
	stats *storage.IOStats
}

// OpenDiskIndex opens tuplePath and listPath with a shared I/O meter.
func OpenDiskIndex(tuplePath, listPath string) (*DiskIndex, error) {
	stats := &storage.IOStats{}
	tf, err := storage.OpenTupleFile(tuplePath, stats, 0)
	if err != nil {
		return nil, fmt.Errorf("lists: open tuples: %w", err)
	}
	lf, err := storage.OpenListFile(listPath, stats, 0)
	if err != nil {
		tf.Close()
		return nil, fmt.Errorf("lists: open lists: %w", err)
	}
	if tf.Dim() != lf.Dim() {
		tf.Close()
		lf.Close()
		return nil, fmt.Errorf("lists: dimensionality mismatch: tuples m=%d lists m=%d", tf.Dim(), lf.Dim())
	}
	return &DiskIndex{tf: tf, lf: lf, stats: stats}, nil
}

// Close releases both underlying files.
func (ix *DiskIndex) Close() error {
	err1 := ix.tf.Close()
	err2 := ix.lf.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// NumTuples returns the dataset cardinality.
func (ix *DiskIndex) NumTuples() int { return ix.tf.NumTuples() }

// Dim returns the dimensionality m.
func (ix *DiskIndex) Dim() int { return ix.tf.Dim() }

// ListLen returns the length of dim's inverted list.
func (ix *DiskIndex) ListLen(dim int) int { return ix.lf.ListLen(dim) }

// Stats returns the I/O meter.
func (ix *DiskIndex) Stats() *storage.IOStats { return ix.stats }

// WithStats returns a view over the same files charging st. The files
// stay shared; only the metering target changes.
func (ix *DiskIndex) WithStats(st *storage.IOStats) Index {
	cp := *ix
	cp.stats = st
	return &cp
}

// Cursor opens a sorted-access cursor on dim.
func (ix *DiskIndex) Cursor(dim int) Cursor {
	return &diskCursor{ListCursor: *ix.lf.CursorWith(dim, ix.stats), tf: ix.tf}
}

// Tuple fetches a tuple, charging one random read. It panics when the
// read fails: Index.Tuple returns no error, and only callers off the
// query path (GET /tuple, the write path, loaders) use it.
func (ix *DiskIndex) Tuple(id int) vec.Sparse {
	t, err := ix.tf.GetWith(id, ix.stats)
	if err != nil {
		panic(fmt.Errorf("lists: tuple %d: %w", id, err))
	}
	return t
}

// Project charges Tuple's random read and projects straight from the
// record (a view of the mapping when the file is mapped).
func (ix *DiskIndex) Project(id int, dims []int, dst []float64) error {
	if err := ix.tf.ProjectWith(id, dims, dst, ix.stats); err != nil {
		return fmt.Errorf("lists: tuple %d: %w", id, err)
	}
	return nil
}

// The records of the next postings of a list are what TA reads next at
// random: a diskCursor keeps those of the next prefetchDistance (as far
// as its page holds them) prefetched, topping the window up whenever
// fewer than prefetchRefill remain ahead, so a refill loads about
// prefetchDistance-prefetchRefill records in one loop whose misses
// overlap.
const (
	prefetchDistance = 16
	prefetchRefill   = 8
)

// diskCursor adapts storage.ListCursor to the Cursor interface (the
// Clone method cannot live in storage without an import cycle) and
// prefetches the records of the postings it is about to return. The
// prefetch is physical only: it charges no meter, so what a query is
// charged, and every count the paper's figures report, does not depend
// on it.
type diskCursor struct {
	storage.ListCursor // by value: one allocation per cursor, not two
	tf                 *storage.TupleFile
	fetched            int // list position up to which records have been prefetched
	ids                [prefetchDistance]int32
	sum                uint64 // Prefetch's result, kept so its loads are not optimized away
}

func (d *diskCursor) Next() (storage.Posting, bool) {
	p, ok := d.ListCursor.Next()
	if pos := d.Consumed(); ok && d.fetched-pos < prefetchRefill {
		d.prefetch(pos)
	}
	return p, ok
}

// prefetch loads the records of list positions [fetched, pos+distance)
// that the current page holds; pos is the next posting's position.
func (d *diskCursor) prefetch(pos int) {
	from := max(d.fetched, pos)
	n := d.Ahead(from-pos, d.ids[:pos+prefetchDistance-from])
	d.sum += d.tf.Prefetch(d.ids[:n])
	d.fetched = from + n
}

func (d *diskCursor) Clone() Cursor {
	return &diskCursor{ListCursor: *d.CloneCursor(), tf: d.tf, fetched: d.fetched}
}

// SaveDataset writes tuples and their inverted lists to tuplePath and
// listPath in the storage formats. It is the bulk-load path: irgen and
// shard builds come through here (a checkpoint, whose lists are already
// sorted, merges instead: SaveIndex). The output depends on the tuples
// alone, not on the worker count. A tuple the tuple file cannot hold
// (see storage.TupleSink.Tuple) fails the save and leaves neither file.
func SaveDataset(tuplePath, listPath string, tuples []vec.Sparse, m int) error {
	_, err := SaveDatasetTimed(tuplePath, listPath, tuples, m)
	return err
}

// SaveTimes splits one SaveDataset call's wall time: Build runs until
// the last list is sorted, Write from there until both files are closed
// (the tuple file and the finished lists are written while later lists
// still sort, so Write is only what the sort did not hide).
type SaveTimes struct {
	Build, Write time.Duration
}

// SaveDatasetTimed is SaveDataset reporting where the time went.
func SaveDatasetTimed(tuplePath, listPath string, tuples []vec.Sparse, m int) (SaveTimes, error) {
	return saveDataset(tuplePath, listPath, tuples, m, runtime.GOMAXPROCS(0))
}

func saveDataset(tuplePath, listPath string, tuples []vec.Sparse, m, workers int) (SaveTimes, error) {
	start := time.Now()
	tupleErr := make(chan error, 1)
	go func() { tupleErr <- storage.WriteTupleFile(tuplePath, tuples, m) }()

	b := carve(tuples)
	counts := b.counts()
	sorted := b.sortLists(workers)
	// Lists finish out of order and the file wants them in order: take
	// notices until the wanted list is among them.
	ready := make([]bool, len(b.dims))
	pending := len(b.dims)
	built := start
	take := func() bool {
		i, ok := <-sorted
		if ok {
			ready[i] = true
			if pending--; pending == 0 {
				built = time.Now()
			}
		}
		return ok
	}
	vals := make([]float64, 0, b.longest())
	listErr := storage.WriteListFile(listPath, m, b.dims, counts, func(i int, out *storage.ListSink) error {
		for !ready[i] {
			take()
		}
		keys, ids := b.list(i)
		vals = vals[:0]
		for _, k := range keys {
			vals = append(vals, keyValue(k))
		}
		out.Append(ids, vals)
		return nil
	})
	for take() { // a failed writer stopped asking; the sort still has to end
	}
	err := <-tupleErr
	times := SaveTimes{Build: built.Sub(start), Write: time.Since(built)}
	return times, savedBoth(tuplePath, listPath, err, listErr)
}

// savedBoth is how every dataset save ends: nil when both writers
// succeeded; otherwise the first failure, with whichever file did get
// written removed too — half a dataset is debris.
func savedBoth(tuplePath, listPath string, tupleErr, listErr error) error {
	var err error
	switch {
	case tupleErr != nil:
		err = fmt.Errorf("lists: write tuples: %w", tupleErr)
	case listErr != nil:
		err = fmt.Errorf("lists: write lists: %w", listErr)
	default:
		return nil
	}
	os.Remove(tuplePath)
	os.Remove(listPath)
	return err
}
