// Overlay: the write path of the system. The paper treats the dataset as
// static — immutable regions certify result validity against *weight*
// change — but the orthogonal axis, *data* change, is what the engine's
// region-certified cache invalidation is built on. An Overlay makes a
// read-only Index (a DiskIndex, or another overlay) writable without
// writing to it: new and updated tuples live in memory as delta posting
// lists; base postings of updated or deleted tuples are tombstoned and
// skipped by the merged cursor. The merged sorted order is exactly
// BuildPostings' (descending value, ties by ascending id), so to the
// query path an overlay is indistinguishable from an index freshly built
// on the post-update dataset.
//
// Tuple ids are stable: Insert assigns the next id, Delete tombstones
// its slot (the id is never reused and NumTuples does not shrink),
// Update replaces the tuple. Update and Delete return the previous
// version — the raw material of the engine's cache-invalidation
// certificate — charging the one base read that takes when the tuple
// still lives in the base.
//
// Mutations are NOT internally synchronized: they must be serialized
// against each other and against readers (the engine's reader-writer
// lock does this). The delta itself is memory-only; durability comes
// from the engine's write-ahead log (internal/wal), which replays into a
// fresh overlay on open, and from checkpoint compaction, which merges a
// frozen copy of the delta (Freeze) with the base files into fresh
// tuple/list files (SaveIndex). DeltaStats makes the overlay's growth
// observable so the checkpointer can bound it.
package lists

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/storage"
	"repro/internal/vec"
)

// overlayTuple is the overlay's version of a base tuple: a replacement,
// or a tombstone when dead is set.
type overlayTuple struct {
	t    vec.Sparse
	dead bool
}

// Overlay is an Index layering in-memory changes over a read-only base.
type Overlay struct {
	base  Index
	baseN int
	m     int
	stats *storage.IOStats

	// added holds inserted tuples; id = baseN + slice index. A nil slot
	// is a deleted insert (ids are never reused).
	added []vec.Sparse
	// over maps base ids to their overlay version (update or tombstone).
	over map[int]overlayTuple
	// deadBase flags base ids whose base postings are stale; merged
	// cursors skip them. One bit per base tuple.
	deadBase []uint64
	// deadPerDim counts skipped base postings per dimension, so ListLen
	// reports the live length.
	deadPerDim map[int]int
	// delta holds the postings of added and updated tuples, sorted.
	delta map[int]PostingList
	// ds is the delta accounting, maintained incrementally by every
	// mutation so DeltaStats (and the engine's per-Apply checkpoint
	// trigger) is O(1) instead of a scan of the whole delta.
	ds DeltaStats
}

// NewOverlay builds a write overlay over base. The base index must not
// change underneath it.
func NewOverlay(base Index) *Overlay {
	ov := &Overlay{
		base:       base,
		baseN:      base.NumTuples(),
		m:          base.Dim(),
		stats:      base.Stats(),
		over:       make(map[int]overlayTuple),
		deadBase:   make([]uint64, (base.NumTuples()+63)/64),
		deadPerDim: make(map[int]int),
		delta:      make(map[int]PostingList),
	}
	ov.ds.Bytes = 8 * int64(len(ov.deadBase))
	return ov
}

// NumTuples returns the dataset cardinality including inserted tuples
// (tombstoned slots are counted: ids are stable).
func (ov *Overlay) NumTuples() int { return ov.baseN + len(ov.added) }

// Dim returns the dimensionality m.
func (ov *Overlay) Dim() int { return ov.m }

// ListLen returns the live length of dim's inverted list: base postings
// minus tombstoned ones plus delta postings.
func (ov *Overlay) ListLen(dim int) int {
	return ov.base.ListLen(dim) - ov.deadPerDim[dim] + ov.delta[dim].Len()
}

// Stats returns the I/O meter (shared with the base index).
func (ov *Overlay) Stats() *storage.IOStats { return ov.stats }

// WithStats returns a view whose base and delta accesses both charge st.
func (ov *Overlay) WithStats(st *storage.IOStats) Index {
	cp := *ov
	cp.base = ov.base.WithStats(st)
	cp.stats = st
	return &cp
}

// resident returns the overlay's own version of tuple id, charging the
// random read of its record in a tuple file; ok is false when the base
// serves the id.
func (ov *Overlay) resident(id int) (t vec.Sparse, ok bool) {
	if id >= ov.baseN {
		t, ok = ov.added[id-ov.baseN], true
	} else if e, over := ov.over[id]; over {
		t, ok = e.t, true
	}
	if ok {
		ov.stats.AddRandRead(storage.RecordBytes(len(t), ov.m))
	}
	return t, ok
}

// Tuple fetches a tuple, charging one random read.
func (ov *Overlay) Tuple(id int) vec.Sparse {
	if t, ok := ov.resident(id); ok {
		return t
	}
	return ov.base.Tuple(id)
}

// Project follows Tuple: overlay-resident versions project from memory,
// everything else from the base.
func (ov *Overlay) Project(id int, dims []int, dst []float64) error {
	t, ok := ov.resident(id)
	if !ok {
		return ov.base.Project(id, dims, dst)
	}
	vec.Query{Dims: dims}.ProjectInto(t, dst)
	return nil
}

// DeltaStats is a point-in-time measure of an overlay's in-memory
// delta, the raw material of checkpoint-trigger decisions and the
// "overlay" block of /stats as it stands.
type DeltaStats struct {
	// Added counts live inserted tuples (deleted inserts excluded).
	Added int `json:"added"`
	// Overridden counts base tuples replaced by an updated version.
	Overridden int `json:"overridden"`
	// Tombstoned counts dead slots: deleted base tuples plus deleted
	// inserts.
	Tombstoned int `json:"tombstoned"`
	// DeltaPostings counts postings in the delta lists.
	DeltaPostings int `json:"delta_postings"`
	// Bytes approximates the delta's memory footprint: tuple payloads at
	// 12 B/entry plus delta postings at 12 B plus fixed per-slot
	// overheads. It is an estimate for bounding growth, not an exact
	// accounting.
	Bytes int64 `json:"bytes"`
}

// DeltaStats measures the overlay's current delta. The accounting is
// maintained incrementally by the mutation paths, so reading it is
// O(1) — cheap enough for the engine to consult on every Apply. Like
// mutations, it must be serialized against writers (the engine calls
// it under its lock).
func (ov *Overlay) DeltaStats() DeltaStats { return ov.ds }

// tupleBytes is the per-slot estimate of an overlay-resident tuple:
// slice header + map/slot overhead plus 12 B per entry.
func tupleBytes(t vec.Sparse) int64 { return 48 + 12*int64(len(t)) }

// tombBytes is the per-slot estimate of a tombstone.
const tombBytes = 16

// Freeze returns a read-only copy of the overlay as it stands, for a
// checkpoint to write out (SaveIndex) after the engine's lock is let go:
// the delta is copied — O(delta), plus the one-bit-per-base-tuple
// tombstone set — and the immutable base is shared, so it must stay open
// for as long as the copy is used. Everything read through the copy
// charges a throwaway meter: a checkpoint's scan is not query I/O.
func (ov *Overlay) Freeze() *Overlay {
	st := &storage.IOStats{}
	cp := &Overlay{
		base:       ov.base.WithStats(st),
		baseN:      ov.baseN,
		m:          ov.m,
		stats:      st,
		added:      slices.Clone(ov.added), // the vectors are never written in place
		over:       maps.Clone(ov.over),
		deadBase:   slices.Clone(ov.deadBase),
		deadPerDim: maps.Clone(ov.deadPerDim),
		delta:      make(map[int]PostingList, len(ov.delta)),
		ds:         ov.ds,
	}
	// The live lists are spliced in place, so the copy takes its own
	// columns: one allocation each, carved per dimension.
	ids := make([]int32, 0, ov.ds.DeltaPostings)
	vals := make([]float64, 0, ov.ds.DeltaPostings)
	for d, pl := range ov.delta {
		if pl.Len() == 0 {
			continue
		}
		ids, vals = append(ids, pl.IDs...), append(vals, pl.Vals...)
		lo, hi := len(ids)-pl.Len(), len(ids)
		cp.delta[d] = PostingList{IDs: ids[lo:hi:hi], Vals: vals[lo:hi:hi]}
	}
	return cp
}

// overridden reports whether base tuple id has an entry in over: its
// base postings are tombstoned exactly when it does.
func (ov *Overlay) overridden(id int) bool {
	return ov.deadBase[id>>6]&(1<<(uint(id)&63)) != 0
}

// Cursor opens a merged sorted-access cursor on dim. A dimension no
// write has touched since the last checkpoint — no delta postings, no
// tombstoned base postings — has nothing to merge or skip, so its cursor
// is the base cursor itself: same postings, same Consumed, same charges.
// Likewise a dimension the base has no list for (every dimension of an
// in-memory index) is read from the delta alone.
func (ov *Overlay) Cursor(dim int) Cursor {
	pl := ov.delta[dim]
	switch {
	case pl.Len() == 0 && ov.deadPerDim[dim] == 0:
		return ov.base.Cursor(dim)
	case ov.base.ListLen(dim) == 0:
		return &deltaCursor{ids: pl.IDs, vals: pl.Vals, stats: ov.stats}
	}
	return &overlayCursor{
		base:  ov.base.Cursor(dim),
		dead:  ov.deadBase,
		delta: deltaCursor{ids: pl.IDs, vals: pl.Vals, stats: ov.stats},
	}
}

// current returns the live version of a base id (nil when tombstoned)
// plus whether its base postings are already dead. An EMPTY base tuple
// is a tombstone: checkpoint compaction persists deleted slots as empty
// records (ids must stay stable), and validateTuple guarantees no live
// tuple is ever empty — so without this check a delete would stop being
// one after the next compaction.
func (ov *Overlay) current(id int) (t vec.Sparse, overridden bool, err error) {
	if e, ok := ov.over[id]; ok {
		if e.dead {
			return nil, true, fmt.Errorf("lists: tuple %d is deleted", id)
		}
		return e.t, true, nil
	}
	t = ov.base.Tuple(id)
	if len(t) == 0 {
		return nil, false, fmt.Errorf("lists: tuple %d is deleted", id)
	}
	return t, false, nil
}

// tombstoneBase marks a base tuple's postings dead (first override only).
func (ov *Overlay) tombstoneBase(id int, base vec.Sparse) {
	ov.deadBase[id>>6] |= 1 << (uint(id) & 63)
	for _, e := range base {
		ov.deadPerDim[e.Dim]++
	}
}

// validateTuple checks a mutation payload against the index geometry.
// Empty tuples are rejected: an all-zero vector can never appear in any
// inverted list or result, and empty records on disk are how checkpoint
// compaction persists TOMBSTONES — allowing one as a payload would make
// a live tuple indistinguishable from a deleted id after compaction.
func validateTuple(t vec.Sparse, m int) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if len(t) == 0 {
		return fmt.Errorf("lists: empty tuple (delete the id instead)")
	}
	if d := t.MaxDim(); d >= m {
		return fmt.Errorf("lists: tuple dimension %d outside dataset [0,%d)", d, m)
	}
	return nil
}

// insertPosting places (id, val) at its sorted position: descending
// value, ties by ascending id — the BuildPostings order.
func insertPosting(pl PostingList, id int32, val float64) PostingList {
	i := sort.Search(pl.Len(), func(i int) bool {
		if pl.Vals[i] != val {
			return pl.Vals[i] < val
		}
		return pl.IDs[i] > id
	})
	pl.IDs = slices.Insert(pl.IDs, i, id)
	pl.Vals = slices.Insert(pl.Vals, i, val)
	return pl
}

// removePosting deletes the (id, val) posting, located by binary search
// on the (val desc, id asc) order.
func removePosting(pl PostingList, id int32, val float64) (PostingList, bool) {
	i := sort.Search(pl.Len(), func(i int) bool {
		if pl.Vals[i] != val {
			return pl.Vals[i] < val
		}
		return pl.IDs[i] >= id
	})
	if i >= pl.Len() || pl.IDs[i] != id || pl.Vals[i] != val {
		return pl, false
	}
	pl.IDs = slices.Delete(pl.IDs, i, i+1)
	pl.Vals = slices.Delete(pl.Vals, i, i+1)
	return pl, true
}

func (ov *Overlay) addDelta(id int, t vec.Sparse) {
	for _, e := range t {
		ov.delta[e.Dim] = insertPosting(ov.delta[e.Dim], int32(id), e.Val)
	}
	ov.ds.DeltaPostings += len(t)
	ov.ds.Bytes += 12 * int64(len(t))
}

func (ov *Overlay) dropDelta(id int, t vec.Sparse) {
	for _, e := range t {
		pl, ok := removePosting(ov.delta[e.Dim], int32(id), e.Val)
		if !ok {
			panic(fmt.Sprintf("lists: delta posting (%d, %v) missing from dim %d", id, e.Val, e.Dim))
		}
		ov.delta[e.Dim] = pl
	}
	ov.ds.DeltaPostings -= len(t)
	ov.ds.Bytes -= 12 * int64(len(t))
}

// Insert adds a new tuple to the overlay, returning its id.
func (ov *Overlay) Insert(t vec.Sparse) (int, error) {
	if err := validateTuple(t, ov.m); err != nil {
		return -1, err
	}
	id := ov.baseN + len(ov.added)
	ov.added = append(ov.added, t.Clone())
	ov.addDelta(id, t)
	ov.ds.Added++
	ov.ds.Bytes += tupleBytes(t)
	return id, nil
}

// Update replaces tuple id and returns the previous version.
func (ov *Overlay) Update(id int, t vec.Sparse) (vec.Sparse, error) {
	if id < 0 || id >= ov.NumTuples() {
		return nil, fmt.Errorf("lists: tuple %d out of range [0,%d)", id, ov.NumTuples())
	}
	if err := validateTuple(t, ov.m); err != nil {
		return nil, err
	}
	if id >= ov.baseN {
		old := ov.added[id-ov.baseN]
		if old == nil {
			return nil, fmt.Errorf("lists: tuple %d is deleted", id)
		}
		ov.dropDelta(id, old)
		ov.added[id-ov.baseN] = t.Clone()
		ov.addDelta(id, t)
		ov.ds.Bytes += tupleBytes(t) - tupleBytes(old)
		return old, nil
	}
	old, overridden, err := ov.current(id)
	if err != nil {
		return nil, err
	}
	if overridden {
		ov.dropDelta(id, old)
		ov.ds.Bytes += tupleBytes(t) - tupleBytes(old)
	} else {
		ov.tombstoneBase(id, old)
		ov.ds.Overridden++
		ov.ds.Bytes += tupleBytes(t)
	}
	ov.over[id] = overlayTuple{t: t.Clone()}
	ov.addDelta(id, t)
	return old, nil
}

// Delete tombstones tuple id and returns the deleted version.
func (ov *Overlay) Delete(id int) (vec.Sparse, error) {
	if id < 0 || id >= ov.NumTuples() {
		return nil, fmt.Errorf("lists: tuple %d out of range [0,%d)", id, ov.NumTuples())
	}
	if id >= ov.baseN {
		old := ov.added[id-ov.baseN]
		if old == nil {
			return nil, fmt.Errorf("lists: tuple %d is already deleted", id)
		}
		ov.dropDelta(id, old)
		ov.added[id-ov.baseN] = nil
		ov.ds.Added--
		ov.ds.Tombstoned++
		ov.ds.Bytes += tombBytes - tupleBytes(old)
		return old, nil
	}
	old, overridden, err := ov.current(id)
	if err != nil {
		return nil, fmt.Errorf("lists: tuple %d is already deleted", id)
	}
	if overridden {
		ov.dropDelta(id, old)
		ov.ds.Overridden--
		ov.ds.Bytes += tombBytes - tupleBytes(old)
	} else {
		ov.tombstoneBase(id, old)
		ov.ds.Bytes += tombBytes
	}
	ov.over[id] = overlayTuple{dead: true}
	ov.ds.Tombstoned++
	return old, nil
}

// overlayCursor merges the base cursor (skipping tombstoned ids) with
// the dimension's delta postings, preserving the (val desc, id asc)
// order. An id never appears on both sides: delta postings belong to
// added or overridden tuples, whose base postings are tombstoned.
type overlayCursor struct {
	base  Cursor
	dead  []uint64
	delta deltaCursor
	n     int // merged postings consumed
}

// skipDead consumes base postings of tombstoned tuples. Reading past
// them is charged to the base cursor: the scan physically visits them.
// An id outside the base is passed on, for the scan to fail on.
func (c *overlayCursor) skipDead() {
	for {
		p, ok := c.base.Peek()
		if !ok || uint(p.ID>>6) >= uint(len(c.dead)) || c.dead[p.ID>>6]&(1<<(uint(p.ID)&63)) == 0 {
			return
		}
		c.base.Next()
	}
}

// peek returns the next merged posting and whether it comes from the
// delta side.
func (c *overlayCursor) peek() (p storage.Posting, fromDelta, ok bool) {
	c.skipDead()
	bp, bok := c.base.Peek()
	if dp, dok := c.delta.Peek(); dok && (!bok || dp.Val > bp.Val || (dp.Val == bp.Val && dp.ID < bp.ID)) {
		return dp, true, true
	}
	return bp, false, bok
}

func (c *overlayCursor) Peek() (storage.Posting, bool) {
	p, _, ok := c.peek()
	return p, ok
}

func (c *overlayCursor) Next() (storage.Posting, bool) {
	_, fromDelta, ok := c.peek()
	if !ok {
		return storage.Posting{}, false
	}
	c.n++
	if fromDelta {
		return c.delta.Next()
	}
	return c.base.Next()
}

func (c *overlayCursor) Consumed() int { return c.n }
func (c *overlayCursor) Err() error    { return c.base.Err() }
func (c *overlayCursor) Release()      { c.base.Release() }

func (c *overlayCursor) Clone() Cursor {
	cp := *c
	cp.base = c.base.Clone()
	return &cp
}
