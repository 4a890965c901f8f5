package engine

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/vec"
)

// TestFailedSortedAccessFailsTheQuery: a list file cut short after it was
// opened makes a page read fail in the middle of a scan. That is not the
// end of the list: a TA that took it for one would terminate early, and
// the engine would serve — and cache — a top-k with tuples missing. The
// query must fail instead, the way a failed random access fails it, and
// leave nothing behind. The list file is read, never mapped, on every
// build, so the truncation is a failed read here and not a SIGBUS that
// takes the process down.
func TestFailedSortedAccessFailsTheQuery(t *testing.T) {
	ds := dataset.GenerateST(dataset.STConfig{N: 5000, Seed: 5})
	dir := t.TempDir()
	tp, lp := filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")
	if err := ds.Save(tp, lp); err != nil {
		t.Fatal(err)
	}
	eng, err := Open(tp, lp, Config{MaxConcurrent: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	st, err := os.Stat(lp)
	if err != nil {
		t.Fatal(err)
	}
	// The lists lie in dimension order: half the file keeps the directory
	// and the low dimensions and loses the high ones.
	if err := os.Truncate(lp, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	lost := vec.MustQuery([]int{ds.M - 4, ds.M - 3, ds.M - 2, ds.M - 1}, []float64{0.9, 0.4, 0.7, 0.6})
	kept := vec.MustQuery([]int{0, 1, 2, 3}, []float64{0.9, 0.4, 0.7, 0.6})
	opts := Options{Options: core.Options{Method: core.MethodCPT}}

	ctx := context.Background()
	for what, query := range map[string]func() error{
		"Analyze":     func() error { _, err := eng.Analyze(ctx, lost, 10, opts); return err },
		"TopKMetered": func() error { _, _, err := eng.TopKMetered(ctx, lost, 10); return err },
		"AnalyzeBatch": func() error {
			return eng.AnalyzeBatch(ctx, []BatchItem{{Q: lost, K: 10, Opts: opts}})[0].Err
		},
		"TopKBatch": func() error { return eng.TopKBatch(ctx, []TopKItem{{Q: lost, K: 10}})[0].Err },
	} {
		if err := query(); !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s over a truncated list returned %v, want the read error", what, err)
		}
	}
	if cs := eng.CacheStats(); cs.Entries != 0 {
		t.Fatalf("the failed analysis left %d cache entries", cs.Entries)
	}
	// The engine is not wedged: what is still readable still answers.
	if a := analyzeMust(t, eng, kept, 10, opts); a.Source != SourceComputed {
		t.Fatalf("source %v after the failures, want a computed answer", a.Source)
	}
}
