// Command irbench regenerates the paper's evaluation: one runner per
// figure of §7, printed as aligned text tables (the same series the
// paper plots) and optionally dumped as CSV for plotting.
//
// Usage:
//
//	irbench                         # every figure, laptop scale
//	irbench -fig fig10,fig14        # a subset
//	irbench -scale 5 -queries 100   # closer to paper scale
//	irbench -csv out/               # also write CSV per figure
//
// Load and per-layer measurement is bench/'s job (go run -C bench .);
// irbench keeps only what it alone does, the paper-figure tables.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/exp"
)

func main() {
	var (
		figs    = flag.String("fig", "all", "comma-separated figure ids: fig6,fig7,fig10,...,fig16,phases,headline,stb,ablation")
		queries = flag.Int("queries", 20, "queries averaged per measurement point (paper: 100)")
		scale   = flag.Float64("scale", 1, "dataset scale multiplier (≈20 reaches paper scale)")
		seed    = flag.Int64("seed", 1, "workload seed")
		csvDir  = flag.String("csv", "", "directory to also write per-figure CSV files")
	)
	flag.Parse()

	r := exp.NewRunner(exp.Config{Queries: *queries, Scale: *scale, Seed: *seed})
	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]
	sel := func(id string) bool { return all || want[id] }

	emit := func(f exp.Figure) {
		f.WriteTable(os.Stdout)
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "irbench: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*csvDir, f.ID+".csv")
			w, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "irbench: %v\n", err)
				os.Exit(1)
			}
			f.WriteCSV(w)
			w.Close()
			fmt.Printf("   wrote %s\n\n", path)
		}
	}

	start := time.Now()
	if sel("fig6") {
		for _, useST := range []bool{false, true} {
			name := "fig6a-wsj"
			if useST {
				name = "fig6b-st"
			}
			rows := r.Fig6(useST)
			fmt.Printf("== %s — result/candidate scatter (score vs 1st query coordinate) ==\n", name)
			fmt.Printf("%-10s %10s %10s %4s\n", "class", "coord", "score", "nz")
			for _, row := range rows {
				fmt.Printf("%-10s %10.4f %10.4f %4d\n", row.Class, row.Coord, row.Score, row.NZ)
			}
			fmt.Println()
		}
	}
	if sel("fig7") {
		fmt.Println("== fig7 — candidate partition sizes per query dimension (qlen=4, k=10) ==")
		fmt.Printf("%-8s %10s %10s %10s %12s\n", "dataset", "C0", "CH", "CL", "|C(q)|")
		for _, ps := range r.Fig7() {
			fmt.Printf("%-8s %10.1f %10.1f %10.1f %12.1f\n", ps.Dataset, ps.C0, ps.CH, ps.CL, ps.CandidateTotal)
		}
		fmt.Println()
	}
	if sel("fig10") {
		emit(r.Fig10())
	}
	if sel("fig11") {
		emit(r.Fig11())
	}
	if sel("fig12") {
		emit(r.Fig12())
	}
	if sel("fig13") {
		wsj, st := r.Fig13()
		emit(wsj)
		emit(st)
	}
	if sel("fig14") {
		emit(r.Fig14())
	}
	if sel("fig15") {
		emit(r.Fig15())
	}
	if sel("fig16") {
		emit(r.Fig16())
	}
	if sel("phases") {
		fmt.Println("== §7.2 — per-phase CPU split (WSJ, k=10, qlen=4) ==")
		fmt.Printf("%-8s %12s %12s %12s %14s\n", "method", "phase1", "phase2", "phase3", "phase3 pulled")
		for _, pc := range r.PhaseBreakdown() {
			fmt.Printf("%-8s %12v %12v %12v %14.1f\n", pc.Method, pc.Phase1, pc.Phase2, pc.Phase3, pc.Phase3Pulled)
		}
		fmt.Println()
	}
	if sel("headline") {
		fmt.Println("== headline — Scan vs CPT evaluated candidates (abstract: 2x to >500x) ==")
		fmt.Printf("%-26s %12s %12s %8s\n", "workload", "Scan", "CPT", "ratio")
		for _, row := range r.Headline() {
			fmt.Printf("%-26s %12.1f %12.1f %7.1fx\n", row.Workload, row.Scan, row.CPT, row.Ratio)
		}
		fmt.Println()
	}
	if sel("ablation") {
		fmt.Println("== ablation — TA probing policy and NRA (WSJ, k=10, qlen=4) ==")
		fmt.Printf("%-18s %16s %12s %12s\n", "variant", "sorted accesses", "rand reads", "CPU")
		for _, row := range r.AblationProbing() {
			fmt.Printf("%-18s %16.1f %12.1f %12v\n", row.Name, row.SortedAccesses, row.RandReads, row.CPU)
		}
		fmt.Println()
		fmt.Println("== ablation — thresholding schedule (KB, k=10, qlen=8, CPT) ==")
		fmt.Printf("%-18s %12s %12s %12s\n", "variant", "evaluated", "rand reads", "CPU")
		for _, row := range r.AblationSchedule() {
			fmt.Printf("%-18s %12.1f %12.1f %12v\n", row.Name, row.Evaluated, row.RandReads, row.CPU)
		}
		fmt.Println()
	}
	if sel("stb") {
		cmp := r.STB()
		fmt.Println("== §2 — STB sensitivity radius vs immutable regions (WSJ, k=10, qlen=4) ==")
		fmt.Printf("queries                 : %d\n", cmp.Queries)
		fmt.Printf("STB tuples scanned      : %.0f per query (all non-result tuples)\n", cmp.STBScanned)
		fmt.Printf("CPT candidates evaluated: %.1f per query\n", cmp.CPTEvaluated)
		fmt.Printf("mean radius rho         : %.5f\n", cmp.MeanRho)
		fmt.Printf("mean min IR extent      : %.5f (>= rho along its axis, and IR names the new result)\n", cmp.MeanMinIRExtent)
		fmt.Println()
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
}
