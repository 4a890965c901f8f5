// Command bench is the repository's load harness: it builds irgen,
// irserver and irproxy from the working tree, boots them on loopback,
// drives them closed-loop from this one process, verifies the answers
// against an exhaustive-scoring oracle, and reports end-to-end and
// per-layer metrics. See README.md in this directory.
//
// Usage (from the repository root):
//
//	go run -C bench . -seed 1                 # all four workloads, end to end
//	go run -C bench . -seed 1 -trace 1        # plus the in-process layer ladder
//	go run -C bench . -workload write-mix -seed 3 -seconds 15 -trace 0
//	go run -C bench . -compare A B            # the regression gate over two run-sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (default: all four) and print the result object as the last line")
		seed     = flag.Int64("seed", 1, "request-stream seed")
		seconds  = flag.Int("seconds", 15, "measured window per workload, in seconds, shared equally by its three deployments")
		trace    = flag.Int("trace", 0, "1 adds the traced in-process layer ladder and reports per-layer metrics")
		compare  = flag.Bool("compare", false, "compare two run-set files or directories: bench -compare A B")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareMain(flag.Args()))
	}
	os.Exit(run(*workload, *seed, *seconds, *trace == 1))
}

// watchdogSlack is what one workload may spend outside its window
// (three set-ups, the oracle, the ladder) before the run is aborted.
const watchdogSlack = 150 * time.Second

func run(workload string, seed int64, seconds int, traced bool) int {
	if seconds < deployments {
		fmt.Fprintf(os.Stderr, "bench: -seconds must be at least %d, one slice per deployment\n", deployments)
		return 2
	}
	todo := specs
	if workload != "" {
		sp, ok := specByName(workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", workload)
			return 2
		}
		todo = []spec{sp}
	}
	h, err := newHarness()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer h.close()
	// A signal, or a run that outlives the watchdog, kills every child
	// and removes the scratch directory before exiting: the loader may be
	// blocked in a request at that moment, so this cannot wait for it.
	abort := func(why string, code int) {
		fmt.Fprintln(os.Stderr, "bench:", why)
		h.killAll()
		h.close()
		os.Exit(code)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() { abort(fmt.Sprint("caught ", <-sigs), 130) }()
	limit := time.Duration(len(todo)) * (time.Duration(seconds)*time.Second + watchdogSlack)
	time.AfterFunc(limit, func() { abort(fmt.Sprintf("run exceeded %v", limit), 1) })

	out := runFile{Host: hostFacts(h.root), Seed: seed, Seconds: seconds}
	code := 0
	var last workloadResult
	for _, sp := range todo {
		res, err := h.runWindow(sp, seed, time.Duration(seconds)*time.Second)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		last = summarize(res)
		if traced {
			if err := h.ladder(res, &last); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		last.print(os.Stdout)
		out.Workloads = append(out.Workloads, last)
		if last.Failed > 0 {
			code = 1
		}
	}
	path, err := out.write(h.outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "bench: wrote", path)
	if workload != "" {
		// The driver contract: one JSON object as the last line.
		b, err := json.Marshal(last.contract(traced))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(b))
	}
	return code
}
