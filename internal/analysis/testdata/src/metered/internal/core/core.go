// Fixture for the metered analyzer's core-side rules: raw storage
// reads in the computation layer bypass the query's meter.
package core

import "metered/internal/storage"

func scan(lf *storage.ListFile, pg *storage.Pager, st *storage.IOStats, tf *storage.TupleFile) {
	_ = lf.Cursor(0)        // want `charges the file-wide meter`
	_ = tf.Prefetch(nil)    // want `charges no meter: only the lists cursor`
	_ = pg.ReadRange(0, 64) // want `charges the file-wide meter`
	_ = pg.Slice(0, 64)     // want `charges the file-wide meter`
	_ = lf.CursorWith(0, st)
}
