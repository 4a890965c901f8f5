package core_test

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lists"
	"repro/internal/topk"
	"repro/internal/vec"
)

var updateCounts = flag.Bool("update-counts", false, "rewrite testdata/counts.golden from this tree's output")

type countsFixture struct {
	name    string
	d       *dataset.Dataset
	queries []vec.Query
}

// countsFixtures are the two datasets of the paper's evaluation at test
// size, each with a fixed query set (qlen 4, k 10).
func countsFixtures() []countsFixture {
	sample := func(d *dataset.Dataset, seed int64) []vec.Query {
		rng := rand.New(rand.NewSource(seed))
		var qs []vec.Query
		for len(qs) < 3 {
			q, err := d.SampleQuery(rng, 4, 25)
			if err != nil {
				panic(err)
			}
			qs = append(qs, q)
		}
		return qs
	}
	st := dataset.GenerateST(dataset.STConfig{N: 20000, Seed: 103})
	wsj := dataset.GenerateWSJ(dataset.WSJConfig{Docs: 3000, Vocab: 4500, MeanTerms: 22, Seed: 101})
	return []countsFixture{{"st", st, sample(st, 301)}, {"wsj", wsj, sample(wsj, 302)}}
}

// countLines runs the fixed query set over ix for every method, φ and
// execution mode and renders the paper's counts, one line per run.
func countLines(t *testing.T, name string, ix lists.Index, queries []vec.Query) string {
	t.Helper()
	var b strings.Builder
	for qi, q := range queries {
		for _, method := range []core.Method{core.MethodScan, core.MethodPrune, core.MethodThres, core.MethodCPT} {
			for phi := 0; phi <= 2; phi++ {
				for _, par := range []int{0, 1} {
					ta := topk.New(ix, q, 10, topk.BestList)
					ta.Run()
					sa0, c0 := ta.SortedAccesses(), len(ta.Candidates())
					out, err := core.Compute(context.Background(), ta, core.Options{Method: method, Phi: phi, Parallelism: par})
					if err != nil {
						t.Fatal(err)
					}
					m := out.Metrics
					mode := "sequential"
					if par > 0 {
						mode = "forked"
					}
					fmt.Fprintf(&b, "%s/q%d %v phi=%d %s sorted_accesses=%d/%d candidates=%d/%d evaluated=%d per_dim=%v rand_reads=%d seq_pages=%d phase3_pulled=%d mem_bytes=%d\n",
						name, qi, method, phi, mode, sa0, ta.SortedAccesses(), c0, len(ta.Candidates()),
						m.Evaluated, m.EvaluatedPerDim, m.RandReads, m.SeqPages, m.Phase3Pulled, m.MemBytes)
					ta.Release()
				}
			}
		}
	}
	return b.String()
}

// TestCountsGolden pins the paper's cost counters — evaluated candidates
// (total and per dimension), random reads, sequential pages, Phase-3
// pulls, the modelled memory footprint, TA's sorted accesses and |C(q)|
// — for a fixed query set on the ST and WSJ fixtures × every method ×
// φ ∈ {0, 1, 2} × {sequential, forked}. The golden file was generated at
// the commit before random access started projecting from the mapped
// record (and the candidate orders became index lists, and SLj a heap),
// so a pass means none of that moved a count. The same lines must come
// out of a mapped DiskIndex under an empty Overlay — the shape irserver
// -wal serves — which differs from the memory index only in when a
// cursor charges its page (on fill, not on consumption). An unmapped
// build's page charges depend on the buffer pool, so there only the
// memory half is compared.
func TestCountsGolden(t *testing.T) {
	var got, onDisk strings.Builder
	dir := t.TempDir()
	mapped := true
	for _, fx := range countsFixtures() {
		got.WriteString(countLines(t, "mem "+fx.name, fx.d.Index(), fx.queries))

		tp, lp := filepath.Join(dir, fx.name+".tuples"), filepath.Join(dir, fx.name+".lists")
		if err := fx.d.Save(tp, lp); err != nil {
			t.Fatal(err)
		}
		disk, err := lists.OpenDiskIndex(tp, lp, 0)
		if err != nil {
			t.Fatal(err)
		}
		onDisk.WriteString(countLines(t, "disk "+fx.name, lists.NewOverlay(disk), fx.queries))
		mapped = mapped && disk.Stats().Bypasses() > 0
		disk.Close()
	}
	if mapped {
		got.WriteString(onDisk.String())
	}
	golden := filepath.Join("testdata", "counts.golden")
	if *updateCounts {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if !mapped {
		want = want[:strings.Index(want, "disk ")]
	}
	if got.String() != want {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(want, "\n")
		for i := range wl {
			if i >= len(gl) || gl[i] != wl[i] {
				t.Fatalf("counts moved, first at line %d:\ngot:  %s\nwant: %s", i+1, gl[min(i, len(gl)-1)], wl[i])
			}
		}
		t.Fatalf("counts moved: %d lines, want %d", len(gl), len(wl))
	}
}
