// Fixture for the metered analyzer's engine-side rules: TA
// constructors must receive the index the funnel hands a …Locked
// function, or a WithStats view.
package engine

import (
	"metered/internal/storage"
	"metered/internal/topk"
)

type Engine struct {
	ix topk.Index
	st *storage.IOStats
}

func (e *Engine) WithStats(st *storage.IOStats) topk.Index { return e.ix }

func (e *Engine) bad(tf *storage.TupleFile, k int) {
	_ = tf.Get(7)         // want `charges the file-wide meter`
	_ = topk.New(e.ix, k) // want `unmetered index`
	_ = tf.Prefetch(nil)  // want `charges no meter: only the lists cursor`
}

// A parameter is the funnel's only in a …Locked function.
func (e *Engine) helper(ix topk.Index, k int) {
	_ = topk.New(ix, k) // want `unmetered index`
}

func (e *Engine) unitLocked(ix topk.Index, k int) {
	_ = topk.New(ix, k)
	_ = topk.New(e.ix, k) // want `unmetered index`
}

func (e *Engine) good(tf *storage.TupleFile, k int) {
	_ = tf.GetWith(7, e.st.Child())
	_ = topk.New(e.WithStats(e.st.Child()), k)
	ix := e.WithStats(e.st.Child())
	_ = topk.NewMulti(ix, k)
}

// startup is a reviewed exception: the boot-time integrity scan is
// deliberately charged to the file-wide meter.
func (e *Engine) startup(tf *storage.TupleFile) {
	//lint:allow metered boot-time integrity scan is deliberately file-wide, no query is running
	_ = tf.Get(1) // want:suppressed `charges the file-wide meter`
}
