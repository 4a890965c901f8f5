// Command irbench prints the paper's evaluation figures (§7) as text
// tables of exact cost counters, one per entry of the internal/exp
// registry; docs/figures.md lists the ids. At its defaults it prints the
// bytes internal/exp/testdata/*.golden pin. CPU-time panels are
// `go test -bench BenchmarkFig .`; load measurement is bench/'s job.
//
// Usage:
//
//	irbench                         # every figure, the golden config
//	irbench -fig fig10,fig14        # a subset
//	irbench -scale 5 -queries 100   # closer to paper scale
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/exp"
)

func main() {
	var (
		figs    = flag.String("fig", "all", "comma-separated registry ids (docs/figures.md), or all")
		queries = flag.Int("queries", exp.Golden.Queries, "queries averaged per measurement point (paper: 100)")
		scale   = flag.Float64("scale", exp.Golden.Scale, "dataset scale multiplier (≈20 reaches paper scale)")
		seed    = flag.Int64("seed", exp.Golden.Seed, "workload seed")
	)
	flag.Parse()

	var ids []string
	if *figs == "all" {
		for _, f := range exp.Figures {
			ids = append(ids, f.ID)
		}
	} else {
		ids = strings.Split(*figs, ",")
	}
	r := exp.NewRunner(exp.Config{Queries: *queries, Scale: *scale, Seed: *seed})
	for _, id := range ids {
		t, err := r.Table(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(os.Stderr, "irbench:", err)
			os.Exit(1)
		}
		fmt.Print(t)
	}
}
