package exp

// TestFigures is the reproduction's claim as a test. Every registry
// entry is rendered at the Golden config and compared byte for byte with
// testdata/<id>.golden (-update rewrites them), then the paper's
// orderings are asserted as inequalities on the same table, so a golden
// regenerated after a wrong change still fails. docs/figures.md lists
// both per figure, and what became of each test this file and core's
// golden_test.go used to hold.

import (
	"flag"
	"fmt"
	"math"
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

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this tree's output")

// TestMain turns scratch poisoning on: a table that aliases a released
// scan's pages renders NaNs and fails its golden.
func TestMain(m *testing.M) {
	topk.PoisonScratch(true)
	os.Exit(m.Run())
}

// golden compares got with testdata/<id>.golden and names the first line
// that moved. A partial got is compared with as much of the file as it
// covers, and never rewrites it.
func golden(t *testing.T, id, got string, partial bool) {
	t.Helper()
	path := filepath.Join("testdata", id+".golden")
	if *update && !partial {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(raw)
	if partial {
		want = want[:min(len(got), len(want))]
	}
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range wl {
		if i >= len(gl) || gl[i] != wl[i] {
			t.Fatalf("%s moved, first at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[min(i, len(gl)-1)], wl[i])
		}
	}
	t.Fatalf("%s moved: %d lines, want %d", path, len(gl), len(wl))
}

func TestFigures(t *testing.T) {
	r := NewRunner(Golden)
	for _, f := range Figures {
		t.Run(f.ID, func(t *testing.T) {
			tab, err := r.Table(f.ID)
			if err != nil {
				t.Fatal(err)
			}
			golden(t, f.ID, tab.String(), false)
			if assert := orderings[f.ID]; assert != nil {
				assert(checker{t, tab})
			}
		})
	}
	t.Run("counts", testCounts)
}

// checker asserts relations between columns of one table.
type checker struct {
	t   *testing.T
	tab Table
}

func (c checker) col(panel, name string) []float64 {
	c.t.Helper()
	vals := c.tab.Col(panel, name)
	if len(vals) == 0 {
		c.t.Fatalf("%s: no column %q in panel %q", c.tab.ID, name, panel)
	}
	return vals
}

// rows asserts ok(a, b) between two columns at every row.
func (c checker) rows(panel, a, rel, b string, ok func(a, b float64) bool) {
	c.t.Helper()
	as, bs := c.col(panel, a), c.col(panel, b)
	for i, row := range c.tab.panel(panel).Rows {
		if !ok(as[i], bs[i]) {
			c.t.Errorf("%s, %s, row %s: %s = %v, want %s %s = %v", c.tab.ID, panel, row.Label, a, as[i], rel, b, bs[i])
		}
	}
}

func (c checker) le(panel, a, b string) {
	c.t.Helper()
	c.rows(panel, a, "≤", b, func(a, b float64) bool { return a <= b })
}

// down asserts ok between each value of a column and the one below it.
func (c checker) down(panel, name, rel string, ok func(above, below float64) bool) {
	c.t.Helper()
	vals := c.col(panel, name)
	for i := 1; i < len(vals); i++ {
		if !ok(vals[i-1], vals[i]) {
			c.t.Errorf("%s, %s, %s: %v then %v, want %s down the axis", c.tab.ID, panel, name, vals[i-1], vals[i], rel)
		}
	}
}

// methodOrder is §7's ordering at every point: CPT ≤ Thres ≤ Scan and
// CPT ≤ Prune ≤ Scan, in evaluated candidates and in modelled I/O.
func methodOrder(c checker) {
	c.t.Helper()
	for _, panel := range []string{PanelEvaluated, PanelIO} {
		c.le(panel, "CPT", "Thres")
		c.le(panel, "Thres", "Scan")
		c.le(panel, "CPT", "Prune")
		c.le(panel, "Prune", "Scan")
	}
}

// halves asserts that each named series evaluates at most half of what
// Scan does, at every point.
func halves(c checker, series ...string) {
	c.t.Helper()
	for _, s := range series {
		c.rows(PanelEvaluated, s, "≤ ½", "Scan", func(a, b float64) bool { return 2*a <= b })
	}
}

// sparse is methodOrder plus what holds on WSJ and KB, where singleton
// candidates dominate: pruning and thresholding each at least halve
// Scan's work.
func sparse(c checker) {
	c.t.Helper()
	methodOrder(c)
	halves(c, "Prune", "Thres")
}

// correlated is what holds on ST, where every candidate is non-zero on
// every dimension: pruning is inert, thresholding carries CPT.
func correlated(c checker) {
	c.t.Helper()
	eq := func(a, b float64) bool { return a == b }
	c.rows(PanelEvaluated, "Prune", "=", "Scan", eq)
	c.rows(PanelEvaluated, "CPT", "=", "Thres", eq)
	c.rows(PanelEvaluated, "Thres", "<", "Scan", func(a, b float64) bool { return a < b })
}

// kSweep is Fig. 13 on a workload paired across k: Scan degrades with k,
// CPT improves from k = 10 to k = 80.
func kSweep(c checker) {
	c.t.Helper()
	c.down(PanelEvaluated, "Scan", "strict growth", func(a, b float64) bool { return a < b })
	if cpt := c.col(PanelEvaluated, "CPT"); cpt[len(cpt)-1] >= cpt[0] {
		c.t.Errorf("%s: CPT evaluates %v at the largest k, want below %v at the smallest", c.tab.ID, cpt[len(cpt)-1], cpt[0])
	}
}

var orderings = map[string]func(checker){
	"fig7": func(c checker) {
		const panel = "mean class size"
		c0, ch, cl, all := c.col(panel, "C0"), c.col(panel, "CH"), c.col(panel, "CL"), c.col(panel, "|C(q)|")
		for i, row := range c.tab.panel(panel).Rows {
			if sum := c0[i] + ch[i] + cl[i]; math.Abs(sum-all[i]) > 1e-9*all[i] {
				c.t.Errorf("fig7 %s: classes sum to %v, want |C(q)| = %v", row.Label, sum, all[i])
			}
			switch row.Label {
			case WSJ:
				if c0[i]+ch[i] <= cl[i] {
					c.t.Errorf("fig7 WSJ: C0+CH = %v, want above CL = %v", c0[i]+ch[i], cl[i])
				}
			case ST:
				if c0[i] != 0 || ch[i] != 0 {
					c.t.Errorf("fig7 ST: C0 = %v, CH = %v, want both 0", c0[i], ch[i])
				}
			}
		}
	},
	"fig10": func(c checker) {
		sparse(c)
		// Fig. 10(d): a candidate-list entry is 16 bytes, and Scan holds
		// exactly the list.
		mem, cand := c.col(PanelMem, "Scan"), c.col(PanelCandidates, "Scan")
		for i := range mem {
			if mem[i] != 16*cand[i] {
				c.t.Errorf("fig10 row %d: Scan mem_bytes = %v, want 16 × %v candidates", i, mem[i], cand[i])
			}
		}
		c.le(PanelMem, "Prune", "Scan")
	},
	"fig11": correlated,
	"fig12": sparse,
	"fig13-wsj": func(c checker) {
		sparse(c)
		kSweep(c)
	},
	"fig13-st": func(c checker) {
		correlated(c)
		kSweep(c)
	},
	"fig14": func(c checker) {
		sparse(c)
		for _, s := range methods {
			c.down(PanelEvaluated, s.Label, "no decrease", func(a, b float64) bool { return a <= b })
		}
	},
	"fig15": func(c checker) {
		c.le(PanelEvaluated, "Prune-oneoff", "Prune-iterative")
		c.le(PanelEvaluated, "CPT-oneoff", "CPT-iterative")
	},
	"fig16": func(c checker) {
		// Thresholding is less effective when reorderings are ignored
		// (down to 1.7× at scale 0.3), so only pruning's factor is held.
		methodOrder(c)
		halves(c, "Prune")
	},
	"headline": func(c checker) {
		c.rows(PanelEvaluated, "ratio", "≥ 2, not", "ratio", func(ratio, _ float64) bool { return ratio >= 2 })
	},
	"ablation-probing": func(c checker) {
		const panel = "per query"
		sorted, rand := c.col(panel, "sorted accesses"), c.col(panel, "random reads")
		ta, nra := 1, 2 // rows: TA/round-robin, TA/best-list, NRA
		if rand[nra] != 0 {
			c.t.Errorf("NRA did %v random reads, want none", rand[nra])
		}
		if sorted[nra] < sorted[ta] {
			c.t.Errorf("NRA made %v sorted accesses, want at least TA's %v", sorted[nra], sorted[ta])
		}
	},
	"stb": func(c checker) {
		const panel = "per query"
		c.rows(panel, "STB scanned", "= n − k =", "tuples", func(scanned, n float64) bool { return scanned == n-10 })
		c.rows(panel, "CPT evaluated", "<", "STB scanned", func(a, b float64) bool { return a < b })
		// ρ is a distance to the nearest perturbation in any direction,
		// so no axis-parallel extent can be shorter.
		c.rows(panel, "mean rho", "≤", "mean min IR extent", func(a, b float64) bool { return a <= b+1e-9 })
	},
}

type countsFixture struct {
	name    string
	d       *dataset.Dataset
	queries []vec.Query
}

// countsFixtures are the two datasets of the paper's evaluation at test
// size, each with a fixed query set (qlen 4, k 10).
func countsFixtures() []countsFixture {
	fixtures := []countsFixture{
		{name: "st", d: dataset.GenerateST(dataset.STConfig{N: 20000, Seed: 103})},
		{name: "wsj", d: dataset.GenerateWSJ(dataset.WSJConfig{Docs: 3000, Vocab: 4500, MeanTerms: 22, Seed: 101})},
	}
	for i := range fixtures {
		fixtures[i].queries = Sample(fixtures[i].d, 3, 4, 25, 301+int64(i))
	}
	return fixtures
}

// countLines runs the fixed query set over ix for every method, φ and
// execution mode and renders the paper's counts, one line per run.
func countLines(t *testing.T, name string, ix lists.Index, queries []vec.Query) string {
	t.Helper()
	var b strings.Builder
	for qi, q := range queries {
		for _, method := range []core.Method{core.MethodScan, core.MethodPrune, core.MethodThres, core.MethodCPT} {
			for phi := 0; phi <= 2; phi++ {
				for par, mode := range []string{"sequential", "forked"} {
					_, c, err := Analyze(ix, q, 10, core.Options{Method: method, Phi: phi, Parallelism: par})
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&b, "%s/q%d %v phi=%d %s sorted_accesses=%d/%d candidates=%d/%d evaluated=%d per_dim=%v rand_reads=%d seq_pages=%d phase3_pulled=%d mem_bytes=%d\n",
						name, qi, method, phi, mode, c.SortedTA, c.Sorted, c.CandTA, c.Cand,
						c.Evaluated, c.EvaluatedPerDim, c.RandReads, c.SeqPages, c.Phase3Pulled, c.MemBytes)
				}
			}
		}
	}
	return b.String()
}

// testCounts pins the paper's cost counters — evaluated candidates
// (total and per dimension), random reads, sequential pages, Phase-3
// pulls, the modelled memory footprint, TA's sorted accesses and |C(q)|
// — for a fixed query set on the ST and WSJ fixtures × every method ×
// φ ∈ {0, 1, 2} × {sequential, forked}: the matrix the figures do not
// reach (forked execution, a disk index). The golden file was generated
// at the commit before random access started projecting from the mapped
// record (and the candidate orders became index lists, and SLj a heap),
// so a pass means none of that moved a count. The same lines must come
// out of a mapped DiskIndex under an empty Overlay — the shape irserver
// -wal serves — which differs from the memory index only in when a
// cursor charges its page (on fill, not on consumption). An unmapped
// build's page charges depend on the buffer pool, so there only the
// memory half is compared, and -update leaves this golden alone.
func testCounts(t *testing.T) {
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
	golden(t, "counts", got.String(), !mapped)
}
