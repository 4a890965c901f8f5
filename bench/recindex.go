package main

import (
	"time"

	"repro/internal/lists"
	"repro/internal/storage"
	"repro/internal/vec"
)

// accessKind is one kind of call a query makes into the lists layer.
type accessKind uint8

const (
	accCursor accessKind = iota // open a cursor on dimension arg
	accClone                    // clone cursor arg
	accPeek                     // peek cursor arg
	accNext                     // advance cursor arg
	accTuple                    // fetch tuple arg
)

type access struct {
	kind accessKind
	arg  int32
}

// accessLog is the exact sequence of lists-layer calls one query made.
type accessLog []access

// recIndex wraps a lists.Index and records every call the query path
// makes through it. lists.Index is an interface and topk/core reach the
// data only through it, so the access pattern is captured from outside
// without instrumenting either. Recording runs are not timed; the log is
// then replayed against each lower layer with the clock running.
type recIndex struct {
	lists.Index
	log     *accessLog
	cursors *int32 // next cursor number
}

func newRecIndex(ix lists.Index) *recIndex {
	return &recIndex{Index: ix, log: new(accessLog), cursors: new(int32)}
}

func (r *recIndex) WithStats(st *storage.IOStats) lists.Index {
	return &recIndex{Index: r.Index.WithStats(st), log: r.log, cursors: r.cursors}
}

func (r *recIndex) newCursor(c lists.Cursor) *recCursor {
	rc := &recCursor{Cursor: c, rec: r, no: *r.cursors}
	*r.cursors++
	return rc
}

func (r *recIndex) Cursor(dim int) lists.Cursor {
	*r.log = append(*r.log, access{accCursor, int32(dim)})
	return r.newCursor(r.Index.Cursor(dim))
}

func (r *recIndex) Tuple(id int) vec.Sparse {
	*r.log = append(*r.log, access{accTuple, int32(id)})
	return r.Index.Tuple(id)
}

type recCursor struct {
	lists.Cursor
	rec *recIndex
	no  int32
}

func (c *recCursor) Peek() (storage.Posting, bool) {
	*c.rec.log = append(*c.rec.log, access{accPeek, c.no})
	return c.Cursor.Peek()
}

func (c *recCursor) Next() (storage.Posting, bool) {
	*c.rec.log = append(*c.rec.log, access{accNext, c.no})
	return c.Cursor.Next()
}

func (c *recCursor) Clone() lists.Cursor {
	*c.rec.log = append(*c.rec.log, access{accClone, c.no})
	return c.rec.newCursor(c.Cursor.Clone())
}

// replayLists re-issues log[from:to] against ix. cursors carries the
// open cursors between the two halves of a query (TA, then regions).
func replayLists(ix lists.Index, log accessLog, from, to int, cursors *[]lists.Cursor) time.Duration {
	t0 := time.Now()
	for _, a := range log[from:to] {
		switch a.kind {
		case accCursor:
			*cursors = append(*cursors, ix.Cursor(int(a.arg)))
		case accClone:
			*cursors = append(*cursors, (*cursors)[a.arg].Clone())
		case accPeek:
			(*cursors)[a.arg].Peek()
		case accNext:
			(*cursors)[a.arg].Next()
		case accTuple:
			ix.Tuple(int(a.arg))
		}
	}
	return time.Since(t0)
}

// storageSite is the storage layer under one index: the list file and
// the tuple file, opened through the storage package's own functions.
type storageSite struct {
	lf *storage.ListFile
	tf *storage.TupleFile
}

// replayStorage re-issues log[from:to] against the storage layer,
// charging st, and returns the time spent in sorted access (cursor
// calls) and in random access (tuple fetches) separately.
func replayStorage(site storageSite, log accessLog, from, to int, cursors *[]*storage.ListCursor, st *storage.IOStats) (seq, rand time.Duration, err error) {
	t0 := time.Now()
	for _, a := range log[from:to] {
		switch a.kind {
		case accCursor:
			*cursors = append(*cursors, site.lf.CursorWith(int(a.arg), st))
		case accClone:
			*cursors = append(*cursors, (*cursors)[a.arg].CloneCursor())
		case accPeek:
			(*cursors)[a.arg].Peek()
		case accNext:
			(*cursors)[a.arg].Next()
		}
	}
	seq = time.Since(t0)
	t0 = time.Now()
	for _, a := range log[from:to] {
		if a.kind == accTuple {
			if _, err = site.tf.GetWith(int(a.arg), st); err != nil {
				return seq, time.Since(t0), err
			}
		}
	}
	return seq, time.Since(t0), nil
}
