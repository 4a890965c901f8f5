// Command irquery answers a subspace top-k query over a persisted
// dataset and renders the paper's Fig. 1 interface: the ranked result,
// one slide-bar per query dimension with the immutable region marked,
// and the perturbation schedule (what the result becomes past each
// bound) for φ ≥ 0.
//
// Usage:
//
//	irgen -dataset kb -out /tmp/kb
//	irquery -data /tmp/kb -dims 3,17,42 -weights 0.8,0.5,0.6 -k 10 -phi 2
//	irquery -demo    # the paper's running example
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/fixture"
)

func main() {
	var (
		data    = flag.String("data", "", "dataset directory (tuples/lists files, optionally a checkpoint MANIFEST)")
		demo    = flag.Bool("demo", false, "run the paper's running example instead of -data")
		dimsF   = flag.String("dims", "", "comma-separated query dimensions")
		wF      = flag.String("weights", "", "comma-separated query weights in (0,1]")
		k       = flag.Int("k", 10, "result size")
		phi     = flag.Int("phi", 0, "tolerated perturbations per side")
		method  = flag.String("method", "cpt", "algorithm: scan | prune | thres | cpt")
		width   = flag.Int("width", 48, "slider width in characters")
		verbose = flag.Bool("v", false, "print metering")
		trace   = flag.Bool("trace", false, "print the TA execution trace (paper Fig. 2)")
		verify  = flag.Bool("verify", false, "verify dataset file checksums before querying")
	)
	flag.Parse()

	var eng *repro.Engine
	var q repro.Query
	var err error
	switch {
	case *demo:
		tuples, dq, dk := fixture.RunningExample()
		eng = repro.NewEngine(tuples, 2)
		q = dq
		if *k == 10 {
			*k = dk
		}
	case *data != "":
		// Directory-aware open: follow the checkpoint MANIFEST to the
		// live file generation and replay any wal.log, so irquery and a
		// durable irserver pointed at the same directory agree.
		eng, err = repro.OpenEngineDir(*data, 256, repro.EngineConfig{VerifyChecksums: *verify})
		if err != nil {
			fatal(err)
		}
		defer eng.Close()
		q, err = parseQuery(*dimsF, *wF)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("need -data DIR (with -dims/-weights) or -demo"))
	}

	m, err := parseMethod(*method)
	if err != nil {
		fatal(err)
	}
	if *trace {
		printTrace(eng, q, *k)
	}
	a, err := eng.Analyze(context.Background(), q, *k, repro.Options{Method: m, Phi: *phi})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("top-%d result (scores at the current weights):\n", *k)
	for rank, sc := range a.Result {
		fmt.Printf("  %2d. tuple %-8d score %.5f\n", rank+1, sc.ID, sc.Score)
	}
	fmt.Println("\nimmutable regions (one slide-bar per query dimension):")
	for _, reg := range a.Regions {
		fmt.Println("  " + repro.RenderSlider(q, reg, *width))
	}

	if *phi >= 0 {
		fmt.Println("\nperturbation schedule:")
		base := a.RankedIDs()
		for _, reg := range a.Regions {
			printSchedule(reg, base)
		}
	}
	if *verbose {
		met := a.Metrics
		fmt.Printf("\nmetering: evaluated=%d (per dim %.1f), phase1=%v phase2=%v phase3=%v, randReads=%d seqPages=%d, mem=%dB\n",
			met.Evaluated, met.EvaluatedPerDimAvg(), met.Phase1, met.Phase2, met.Phase3,
			met.RandReads, met.SeqPages, met.MemBytes)
	}
}

// printSchedule lists each bound's perturbation and the result past it.
func printSchedule(reg repro.Regions, base []int) {
	describe := func(p repro.Perturbation, i int, right bool) {
		kind := "reorder"
		if p.Entry {
			kind = "entry"
		}
		res, err := reg.ResultAfter(base, right, i)
		resStr := "?"
		if err == nil {
			resStr = fmt.Sprint(res)
		}
		fmt.Printf("    dim %-5d δ=%+.4f  %-7s tuple %d overtakes %d → result %s\n",
			reg.Dim, p.Delta, kind, p.Below, p.Above, resStr)
	}
	for i := len(reg.Left) - 1; i >= 0; i-- {
		describe(reg.Left[i], i, false)
	}
	if len(reg.Left) == 0 && len(reg.Right) == 0 {
		fmt.Printf("    dim %-5d result preserved across the whole weight domain\n", reg.Dim)
		return
	}
	for i := range reg.Right {
		describe(reg.Right[i], i, true)
	}
}

// printTrace renders the Fig. 2-style TA execution table.
func printTrace(eng *repro.Engine, q repro.Query, k int) {
	_, steps, err := eng.TopKTrace(context.Background(), q, k)
	if err != nil {
		fatal(err)
	}
	fmt.Println("TA execution trace:")
	fmt.Printf("  %-4s %-10s %-18s %10s %-22s %s\n", "step", "access", "tuple", "threshold", "R(q)", "C(q)")
	for _, ts := range steps {
		tuple := "(seen)"
		if ts.Tuple >= 0 {
			tuple = fmt.Sprintf("%d (score %.4f)", ts.Tuple, ts.Score)
		}
		fmt.Printf("  %-4d L%-9d %-18s %10.4f %-22s %s\n",
			ts.Step, ts.Dim, tuple, ts.ThresholdScore,
			fmt.Sprint(ts.ResultIDs), fmt.Sprint(ts.CandidateIDs))
	}
	fmt.Println()
}

func parseQuery(dimsF, wF string) (repro.Query, error) {
	if dimsF == "" || wF == "" {
		return repro.Query{}, fmt.Errorf("need -dims and -weights")
	}
	ds := strings.Split(dimsF, ",")
	ws := strings.Split(wF, ",")
	if len(ds) != len(ws) {
		return repro.Query{}, fmt.Errorf("%d dims but %d weights", len(ds), len(ws))
	}
	dims := make([]int, len(ds))
	weights := make([]float64, len(ws))
	for i := range ds {
		var err error
		if dims[i], err = strconv.Atoi(strings.TrimSpace(ds[i])); err != nil {
			return repro.Query{}, fmt.Errorf("dim %q: %v", ds[i], err)
		}
		if weights[i], err = strconv.ParseFloat(strings.TrimSpace(ws[i]), 64); err != nil {
			return repro.Query{}, fmt.Errorf("weight %q: %v", ws[i], err)
		}
	}
	return repro.NewQuery(dims, weights)
}

func parseMethod(s string) (repro.Method, error) {
	switch strings.ToLower(s) {
	case "scan":
		return repro.Scan, nil
	case "prune":
		return repro.Prune, nil
	case "thres":
		return repro.Thres, nil
	case "cpt":
		return repro.CPT, nil
	default:
		return 0, fmt.Errorf("unknown method %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "irquery: %v\n", err)
	os.Exit(1)
}
