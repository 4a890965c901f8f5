// Fixture for the metered analyzer's shard-coordinator rules: the
// scatter-gather layer merges per-shard cost metrics into the
// distributed answer, so coordinator-side reads must charge a child
// meter exactly like engine-side ones, and any TA it spins up must run
// over a metered index view.
package shard

import (
	"metered/internal/storage"
	"metered/internal/topk"
)

type Coordinator struct {
	ix topk.Index
	st *storage.IOStats
}

func (c *Coordinator) WithStats(st *storage.IOStats) topk.Index { return c.ix }

func (c *Coordinator) bad(tf *storage.TupleFile, lf *storage.ListFile, k int) {
	_ = tf.Get(3)         // want `charges the file-wide meter`
	_ = lf.Cursor(0)      // want `charges the file-wide meter`
	_ = topk.New(c.ix, k) // want `unmetered index`
	_ = tf.Prefetch(nil)  // want `charges no meter: only the lists cursor`
}

func (c *Coordinator) good(tf *storage.TupleFile, lf *storage.ListFile, k int) {
	_ = tf.GetWith(3, c.st.Child())
	_ = lf.CursorWith(0, c.st.Child())
	_ = topk.New(c.WithStats(c.st.Child()), k)
	ix := c.WithStats(c.st.Child())
	_ = topk.NewNRA(ix, k)
}
