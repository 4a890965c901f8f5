package exp

import (
	"context"
	"fmt"
	"math/bits"
	"strconv"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lists"
	"repro/internal/stb"
	"repro/internal/topk"
	"repro/internal/vec"
)

// Axis is the query parameter a sweep figure's x sets.
type Axis string

const (
	Qlen Axis = "qlen"
	K    Axis = "k"
	Phi  Axis = "phi"
)

// Series is one line of a sweep figure: what it overrides in the
// figure's base options.
type Series struct {
	Label     string
	Method    core.Method
	Iterative bool
	Schedule  core.Schedule
}

// Options returns base with the series' overrides applied.
func (s Series) Options(base core.Options) core.Options {
	base.Method, base.Iterative, base.Schedule = s.Method, s.Iterative, s.Schedule
	return base
}

// Figure is one registry entry. A sweep figure is data — dataset, axis,
// the fixed values of the two parameters the axis does not set, base
// options, series — which Figure.sweep measures and BenchmarkFig times;
// the headline is data too, points of other figures; the rest supply
// their panels themselves.
type Figure struct {
	ID, Title string

	Data    string
	Axis    Axis
	Xs      []int
	Qlen, K int          // fixed when the axis is not theirs; φ is Base.Phi
	Base    core.Options // Method, Iterative and Schedule come from the series
	Series  []Series

	Points []Ref

	panels func(*Runner) []Panel
}

// Ref names one measured point of a sweep figure.
type Ref struct {
	Fig string
	X   int
}

// methods is the series set of most figures: the paper's four methods.
var methods = func() []Series {
	series := make([]Series, len(core.Methods))
	for i, m := range core.Methods {
		series[i] = Series{Label: m.String(), Method: m}
	}
	return series
}()

// Figures is the registry, in the order irbench prints it. Adding a
// figure is one entry here plus its golden (go test ./internal/exp
// -update) and its row in docs/figures.md.
var Figures = []Figure{
	{ID: "fig6", Title: "result/candidate scatter, score vs 1st query coordinate (qlen=4, k=10, equal weights)", panels: fig6},
	{ID: "fig7", Title: "candidate partition sizes per query dimension (qlen=4, k=10)", panels: fig7},
	{ID: "fig10", Title: "WSJ corpus, k=10, varying query length",
		Data: WSJ, Axis: Qlen, Xs: []int{2, 4, 6, 8, 10}, K: 10, Series: methods},
	{ID: "fig11", Title: "synthetic correlated data, k=10, varying query length",
		Data: ST, Axis: Qlen, Xs: []int{2, 4, 6, 8, 10}, K: 10, Series: methods},
	{ID: "fig12", Title: "KB image features, k=10, varying query length",
		Data: KB, Axis: Qlen, Xs: []int{2, 8, 16, 32, 48}, K: 10, Series: methods},
	{ID: "fig13-wsj", Title: "WSJ corpus, qlen=4, varying k",
		Data: WSJ, Axis: K, Xs: []int{10, 20, 40, 80}, Qlen: 4, Series: methods},
	{ID: "fig13-st", Title: "synthetic correlated data, qlen=4, varying k",
		Data: ST, Axis: K, Xs: []int{10, 20, 40, 80}, Qlen: 4, Series: methods},
	{ID: "fig14", Title: "WSJ corpus, k=10, qlen=4, varying φ",
		Data: WSJ, Axis: Phi, Xs: []int{0, 10, 20, 40}, Qlen: 4, K: 10, Series: methods},
	{ID: "fig15", Title: "one-off vs iterative processing, WSJ, k=10, qlen=4",
		Data: WSJ, Axis: Phi, Xs: []int{1, 5, 10, 20, 40}, Qlen: 4, K: 10, Series: []Series{
			{Label: "Prune-oneoff", Method: core.MethodPrune},
			{Label: "Prune-iterative", Method: core.MethodPrune, Iterative: true},
			{Label: "CPT-oneoff", Method: core.MethodCPT},
			{Label: "CPT-iterative", Method: core.MethodCPT, Iterative: true},
		}},
	{ID: "fig16", Title: "WSJ corpus, composition-only perturbations, k=10, varying query length",
		Data: WSJ, Axis: Qlen, Xs: []int{2, 4, 6, 8, 10}, K: 10, Base: core.Options{CompositionOnly: true}, Series: methods},
	{ID: "headline", Title: "Scan vs CPT evaluated candidates / dimension (abstract: 2x to >500x)",
		Points: []Ref{{"fig10", 4}, {"fig10", 10}, {"fig14", 40}, {"fig12", 16}, {"fig11", 4}}},
	{ID: "ablation-probing", Title: "TA probing policy and NRA (WSJ, k=10, qlen=4)", panels: ablationProbing},
	{ID: "ablation-schedule", Title: "thresholding probe schedule of §5.2 under CPT (KB, k=10)",
		Data: KB, Axis: Qlen, Xs: []int{8}, K: 10, Series: []Series{
			{Label: "round-robin", Method: core.MethodCPT, Schedule: core.ScheduleRoundRobin},
			{Label: "score-biased", Method: core.MethodCPT, Schedule: core.ScheduleScoreBiased},
		}},
	{ID: "stb", Title: "STB sensitivity radius vs immutable regions, §2 (WSJ, k=10, qlen=4)", panels: stbComparison},
}

// minDF is the document-frequency floor of the figure's queries: 3k+20
// at a fixed k, as everywhere in the harness; on a k axis the largest k,
// which keeps every result full while rare terms stay eligible — a
// larger result absorbs a rare term's entire list and empties CH_j,
// the paper's "Prune improves with k" (Fig. 13).
func (f Figure) minDF() int {
	if f.Axis == K {
		return f.Xs[len(f.Xs)-1]
	}
	return 3*f.K + 20
}

// Point is the workload of a sweep figure at x: the index, the queries,
// k and the base options each series overrides. Only a qlen axis moves
// the queries; a k or φ sweep replays one sample at every x.
func (r *Runner) Point(f Figure, x int) (lists.Index, []vec.Query, int, core.Options) {
	qlen, k, opts := f.Qlen, f.K, f.Base
	switch f.Axis {
	case Qlen:
		qlen = x
	case K:
		k = x
	case Phi:
		opts.Phi = x
	}
	d, ix := r.Dataset(f.Data)
	return ix, r.queries(d, qlen, f.minDF()), k, opts
}

// sweep measures every series at every x, one panel per counter.
func (f Figure) sweep(r *Runner) []Panel {
	panels := make([]Panel, len(sweepPanels))
	for pi, sp := range sweepPanels {
		panels[pi] = Panel{Name: sp.Name, Corner: string(f.Axis) + ` \ series`}
		for _, s := range f.Series {
			panels[pi].Cols = append(panels[pi].Cols, Col{s.Label, sp.Prec})
		}
	}
	for xi, x := range f.Xs {
		ix, queries, k, base := r.Point(f, x)
		for pi := range panels {
			panels[pi].Rows = append(panels[pi].Rows, Row{Label: strconv.Itoa(x)})
		}
		for _, s := range f.Series {
			// The counters cover the region computation only: the TA cost
			// is common to all methods and excluded, as in the paper's
			// Phase-2-centric charts.
			vals := mean(queries, func(q vec.Query) []float64 {
				_, c := analyze(ix, q, k, s.Options(base))
				return c.values()
			})
			for pi, v := range vals {
				panels[pi].Rows[xi].Vals = append(panels[pi].Rows[xi].Vals, v)
			}
		}
	}
	return panels
}

// Table computes the table of one registry entry, once per runner.
func (r *Runner) Table(id string) (Table, error) {
	if t, ok := r.tables[id]; ok {
		return t, nil
	}
	for _, f := range Figures {
		if f.ID != id {
			continue
		}
		build := f.panels
		switch {
		case f.Series != nil:
			build = f.sweep
		case f.Points != nil:
			build = f.headline
		}
		r.tables[id] = Table{ID: f.ID, Title: f.Title, Panels: build(r)}
		return r.tables[id], nil
	}
	return Table{}, fmt.Errorf("exp: no figure %q", id)
}

// workload4 is the qlen=4, k=10 workload of Fig. 10 at x=4 on the named
// dataset, which the non-sweep entries share.
func (r *Runner) workload4(name string) (*dataset.Dataset, lists.Index, []vec.Query) {
	d, ix := r.Dataset(name)
	return d, ix, r.queries(d, 4, 50)
}

// ranked runs TA (k=10) for q, hands visit the scan's table with its
// rank order — order[:cut] is R(q), order[cut:] is C(q) — and releases
// the scan.
func ranked(ix lists.Index, q vec.Query, visit func(rows *topk.Table, order []int32, cut int)) {
	ta := topk.New(ix, q, 10, topk.BestList)
	defer ta.Release()
	_ = ta.RunContext(context.Background()) // a runner's memory index has no read to fail
	order, cut := ta.Ranking()
	visit(ta.Table(), order, cut)
}

// fig6 — the score-vs-coordinate scatter of the result and candidate
// tuples of one query (paper Fig. 6a on WSJ, 6b on ST), in rank order;
// nz is the number of query dimensions the tuple is non-zero on.
func fig6(r *Runner) []Panel {
	var panels []Panel
	for _, name := range []string{WSJ, ST} {
		_, ix, queries := r.workload4(name)
		q := queries[0].Clone()
		for i := range q.Weights {
			q.Weights[i] = 0.5 // equal weights, as in the paper's illustration
		}
		p := Panel{Name: name, Corner: "class", Cols: []Col{{"coord", 4}, {"score", 4}, {"nz", 0}}}
		ranked(ix, q, func(rows *topk.Table, order []int32, cut int) {
			for i, pos := range order {
				class := "candidate"
				if i < cut {
					class = "result"
				}
				nz := bits.OnesCount64(rows.Mask(pos))
				p.Rows = append(p.Rows, Row{class, []float64{rows.Coord(pos, 0), rows.Score(pos), float64(nz)}})
			}
		})
		panels = append(panels, p)
	}
	return panels
}

// fig7 — mean candidate class sizes per query dimension on the three
// datasets: C0 (zero on the dimension), CH (non-zero on it alone), CL
// (non-zero on it and another), and |C(q)|.
func fig7(r *Runner) []Panel {
	p := Panel{Name: "mean class size", Corner: "dataset", Cols: []Col{{"C0", 1}, {"CH", 1}, {"CL", 1}, {"|C(q)|", 1}}}
	for _, name := range []string{WSJ, KB, ST} {
		_, ix, queries := r.workload4(name)
		p.Rows = append(p.Rows, Row{name, mean(queries, func(q vec.Query) []float64 {
			size := make([]float64, 4) // C0, CH, CL, |C(q)|
			ranked(ix, q, func(rows *topk.Table, order []int32, cut int) {
				size[3] = float64(len(order) - cut)
				for jx := range q.Dims {
					bit := uint64(1) << uint(jx)
					for _, pos := range order[cut:] {
						switch mask := rows.Mask(pos); {
						case mask&bit == 0:
							size[0]++
						case mask == bit:
							size[1]++
						default:
							size[2]++
						}
					}
				}
			})
			for i := range size[:3] {
				size[i] /= float64(q.Len())
			}
			return size
		})})
	}
	return []Panel{p}
}

// headline — the abstract's Scan/CPT reduction on one workload per
// dataset, a long query and a large φ, read off the figures that
// measured them.
func (f Figure) headline(r *Runner) []Panel {
	p := Panel{Name: PanelEvaluated, Corner: "figure@x", Cols: []Col{{"Scan", 1}, {"CPT", 1}, {"ratio", 1}}}
	for _, ref := range f.Points {
		t, err := r.Table(ref.Fig)
		if err != nil {
			panic(err) // a registry entry naming a figure that is not one
		}
		scan, cpt := t.Col(PanelEvaluated, "Scan"), t.Col(PanelEvaluated, "CPT")
		x := strconv.Itoa(ref.X)
		for ri, row := range t.panel(PanelEvaluated).Rows {
			if row.Label == x {
				p.Rows = append(p.Rows, Row{ref.Fig + "@" + x, []float64{scan[ri], cpt[ri], scan[ri] / cpt[ri]}})
			}
		}
	}
	return []Panel{p}
}

// ablationProbing — TA under round-robin and Persin best-list probing,
// and the no-random-access variant NRA: sorted accesses and the random
// reads the index meter saw, per query. The substrate choices §2 and
// §7.1 discuss.
func ablationProbing(r *Runner) []Panel {
	_, ix, queries := r.workload4(WSJ)
	taDepth := func(policy topk.ProbePolicy) func(vec.Query) int {
		return func(q vec.Query) int {
			ta := topk.New(ix, q, 10, policy)
			defer ta.Release()
			_ = ta.RunContext(context.Background()) // as in ranked
			return ta.SortedAccesses()
		}
	}
	nraDepth := func(q vec.Query) int {
		nra := topk.NewNRA(ix, q, 10)
		nra.Run()
		return nra.SortedAccesses()
	}
	p := Panel{Name: "per query", Corner: "variant", Cols: []Col{{"sorted accesses", 1}, {"random reads", 1}}}
	for _, v := range []struct {
		label  string
		sorted func(vec.Query) int
	}{{"TA/round-robin", taDepth(topk.RoundRobin)}, {"TA/best-list", taDepth(topk.BestList)}, {"NRA", nraDepth}} {
		p.Rows = append(p.Rows, Row{v.label, mean(queries, func(q vec.Query) []float64 {
			r0 := ix.Stats().RandReads()
			sorted := v.sorted(q)
			return []float64{float64(sorted), float64(ix.Stats().RandReads() - r0)}
		})})
	}
	return []Panel{p}
}

// stbComparison — the Soliman-et-al. sensitivity radius next to CPT. STB
// has no index support and scans every non-result tuple; CPT evaluates a
// handful and names the new result.
func stbComparison(r *Runner) []Panel {
	d, ix, queries := r.workload4(WSJ)
	row := mean(queries, func(q vec.Query) []float64 {
		res := stb.Radius(d.Tuples, q, 10)
		out, c := analyze(ix, q, 10, core.Options{Method: core.MethodCPT})
		// Minimal perturbation-backed extent; domain-edge bounds are
		// excluded (ρ ignores the [0,1] weight domain, so only bounds
		// caused by an actual perturbation are comparable to it).
		extent := 1.0
		for _, reg := range out.Regions {
			if len(reg.Left) > 0 {
				extent = min(extent, -reg.Lo)
			}
			if len(reg.Right) > 0 {
				extent = min(extent, reg.Hi)
			}
		}
		return []float64{float64(d.N()), float64(res.Scanned), float64(c.Evaluated), res.Rho, extent}
	})
	return []Panel{{Name: "per query", Corner: "dataset", Cols: []Col{
		{"tuples", 0}, {"STB scanned", 1}, {"CPT evaluated", 1}, {"mean rho", 5}, {"mean min IR extent", 5},
	}, Rows: []Row{{WSJ, row}}}}
}
