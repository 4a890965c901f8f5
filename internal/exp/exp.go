// Package exp is the paper's evaluation (§7) as data: Figures lists every
// reproduced figure once, a Runner turns an entry into a Table of exact
// cost counters, and Table.String renders it. Three readers consume the
// registry — the golden test of this package, cmd/irbench and the root
// BenchmarkFig — so a figure added to Figures appears in all three. Only
// counts that are a function of the data and the algorithm are reported;
// CPU time is BenchmarkFig's job. docs/figures.md maps paper figures to
// registry ids and records the synthetic-dataset substitution.
package exp

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lists"
	"repro/internal/storage"
	"repro/internal/topk"
	"repro/internal/vec"
)

// Config sizes a run of the registry.
type Config struct {
	Queries int     // per measurement point (the paper averages 100)
	Scale   float64 // of dataset cardinalities: 1 is laptop scale, ≈20 the paper's
	Seed    int64   // of the generators and of query sampling
}

// Golden is the configuration testdata/*.golden was generated at and
// irbench defaults to. Half of laptop scale keeps the whole registry
// under 3 s in a plain test run and under 40 s with the race detector on
// (scale 1: 7 s and 100 s); every asserted ordering was checked to hold
// at scales 0.5 and 1 for seeds 1–4 as well.
var Golden = Config{Queries: 5, Scale: 0.5, Seed: 1}

// Runner generates each dataset and computes each table at most once.
type Runner struct {
	cfg    Config
	data   map[string]*dataset.Dataset
	index  map[string]lists.Index
	tables map[string]Table
}

// NewRunner prepares a run of the registry at cfg.
func NewRunner(cfg Config) *Runner {
	return &Runner{cfg: cfg, data: map[string]*dataset.Dataset{}, index: map[string]lists.Index{}, tables: map[string]Table{}}
}

// The three evaluation datasets of §7.1 (synthetic stand-ins, see
// package dataset).
const (
	WSJ = "WSJ"
	KB  = "KB"
	ST  = "ST"
)

// Dataset returns the named dataset at the runner's scale and its index.
// WSJ's terms per document scale with the vocabulary so that term
// co-occurrence stays in the sparse regime of the real corpus at every
// scale (the property the pruning results depend on).
func (r *Runner) Dataset(name string) (*dataset.Dataset, lists.Index) {
	if d, ok := r.data[name]; ok {
		return d, r.index[name]
	}
	scale := func(base int) int { return max(100, int(float64(base)*r.cfg.Scale)) }
	var d *dataset.Dataset
	switch name {
	case WSJ:
		vocab := scale(12000)
		d = dataset.GenerateWSJ(dataset.WSJConfig{
			Docs: scale(8000), Vocab: vocab, MeanTerms: min(max(vocab/200, 6), 60), Seed: r.cfg.Seed + 1,
		})
	case KB:
		d = dataset.GenerateKB(dataset.KBConfig{Images: scale(8000), Features: scale(1200), Seed: r.cfg.Seed + 2})
	case ST:
		d = dataset.GenerateST(dataset.STConfig{N: scale(50000), Seed: r.cfg.Seed + 3})
	default:
		panic("exp: no dataset " + name)
	}
	r.data[name], r.index[name] = d, d.Index()
	return d, r.index[name]
}

// Sample draws n queries over qlen dimensions whose inverted lists hold
// at least minDF postings, halving the floor when the dataset is too
// small to supply them. It panics when d has fewer than qlen non-empty
// dimensions: every caller passes a dataset it generated for the purpose.
func Sample(d *dataset.Dataset, n, qlen, minDF int, seed int64) []vec.Query {
	rng := rand.New(rand.NewSource(seed))
	queries := make([]vec.Query, 0, n)
	for len(queries) < n {
		q, err := d.SampleQuery(rng, qlen, minDF)
		if err != nil {
			if minDF /= 2; minDF == 0 {
				panic(fmt.Sprintf("exp: %v", err))
			}
			continue
		}
		queries = append(queries, q)
	}
	return queries
}

// queries is the workload of one measurement point. The seed depends on
// the query length alone, so every method, every x of a k or φ sweep and
// every figure that shares a (dataset, qlen, floor) replays the same
// queries: comparisons are paired.
func (r *Runner) queries(d *dataset.Dataset, qlen, minDF int) []vec.Query {
	return Sample(d, r.cfg.Queries, qlen, minDF, r.cfg.Seed+int64(qlen)*1009)
}

// analyze is Analyze over a runner's memory index, where core.Compute has
// nothing to fail on: no context to cancel, no file to read.
func analyze(ix lists.Index, q vec.Query, k int, opts core.Options) (*core.Output, Counts) {
	out, c, err := Analyze(ix, q, k, opts)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return out, c
}

// Counts are the exact cost counters of one analysis: core's metrics
// plus the scan's depth and candidate count, at TA's stop and after
// Phase 3.
type Counts struct {
	core.Metrics
	SortedTA, Sorted int
	CandTA, Cand     int
}

// Analyze runs TA and the region computation for one query and releases
// the scan. Everything Counts reports is deterministic; the phase
// timings inside Metrics are not and no table prints them.
func Analyze(ix lists.Index, q vec.Query, k int, opts core.Options) (*core.Output, Counts, error) {
	ta := topk.New(ix, q, k, topk.BestList)
	defer ta.Release()
	if err := ta.RunContext(context.Background()); err != nil {
		return nil, Counts{}, err
	}
	candidates := func() int {
		order, cut := ta.Ranking()
		return len(order) - cut
	}
	c := Counts{SortedTA: ta.SortedAccesses(), CandTA: candidates()}
	out, err := core.Compute(context.Background(), ta, opts)
	if err != nil {
		return nil, c, err
	}
	c.Metrics, c.Sorted, c.Cand = out.Metrics, ta.SortedAccesses(), candidates()
	return out, c, nil
}

// Table is what a registry entry produces: titled panels of numbers. A
// panel is one chart panel of the paper (a line per column) or a plain
// table; a column prints with Prec decimals; a row holds one value per
// column.
type (
	Table struct {
		ID, Title string
		Panels    []Panel
	}
	Panel struct {
		Name   string
		Corner string // header of the row-label column
		Cols   []Col
		Rows   []Row
	}
	Col struct {
		Name string
		Prec int
	}
	Row struct {
		Label string
		Vals  []float64
	}
)

// panel returns the named panel, or nil.
func (t Table) panel(name string) *Panel {
	for i := range t.Panels {
		if t.Panels[i].Name == name {
			return &t.Panels[i]
		}
	}
	return nil
}

// Col returns the values of one column of one panel in row order, or nil
// when the table has no such column.
func (t Table) Col(panel, col string) []float64 {
	p := t.panel(panel)
	if p == nil {
		return nil
	}
	for ci, c := range p.Cols {
		if c.Name == col {
			vals := make([]float64, len(p.Rows))
			for ri, row := range p.Rows {
				vals[ri] = row.Vals[ci]
			}
			return vals
		}
	}
	return nil
}

// String renders the table as aligned text, one block per panel.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	for _, p := range t.Panels {
		fmt.Fprintf(&b, "-- %s --\n%-16s", p.Name, p.Corner)
		width := make([]int, len(p.Cols))
		for ci, c := range p.Cols {
			width[ci] = max(14, len(c.Name)+2)
			fmt.Fprintf(&b, "%*s", width[ci], c.Name)
		}
		b.WriteByte('\n')
		for _, row := range p.Rows {
			fmt.Fprintf(&b, "%-16s", row.Label)
			for ci, v := range row.Vals {
				fmt.Fprintf(&b, "%*s", width[ci], strconv.FormatFloat(v, 'f', p.Cols[ci].Prec, 64))
			}
			b.WriteByte('\n')
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// The panels of a sweep figure, one per reported counter.
const (
	PanelEvaluated  = "evaluated candidates / dimension"
	PanelSeqPages   = "sequential pages"
	PanelRandReads  = "random reads"
	PanelIO         = "modelled I/O (ms)"
	PanelMem        = "mem_bytes"
	PanelPulled     = "Phase-3 pulls"
	PanelCandidates = "candidates after Phase 3"
)

var sweepPanels = []Col{
	{PanelEvaluated, 1}, {PanelSeqPages, 1}, {PanelRandReads, 1}, {PanelIO, 2}, {PanelMem, 1}, {PanelPulled, 1}, {PanelCandidates, 1},
}

// values are the counters a sweep figure reports, in sweepPanels order;
// modelled I/O is the two access counts under storage.DefaultDiskModel.
func (c Counts) values() []float64 {
	io := storage.DefaultDiskModel.Time(c.SeqPages, c.RandReads)
	return []float64{c.EvaluatedPerDimAvg(), float64(c.SeqPages), float64(c.RandReads),
		float64(io) / float64(time.Millisecond), float64(c.MemBytes), float64(c.Phase3Pulled), float64(c.Cand)}
}

// mean averages per's values over the queries.
func mean(queries []vec.Query, per func(vec.Query) []float64) []float64 {
	var sum []float64
	for _, q := range queries {
		vals := per(q)
		if sum == nil {
			sum = make([]float64, len(vals))
		}
		for i, v := range vals {
			sum[i] += v
		}
	}
	for i := range sum {
		sum[i] /= float64(len(queries))
	}
	return sum
}
