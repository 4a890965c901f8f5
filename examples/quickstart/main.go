// Quickstart: the paper's running example (Fig. 1) in ~40 lines.
//
// Four tuples in [0,1]², the query q=(0.8, 0.5), k=2. The library answers
// the query and reports, per dimension, how far each weight can move
// before the ranked result changes — and what it changes into.
//
// Run: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	tuples := []repro.Tuple{
		repro.FromDense([]float64{0.8, 0.32}), // d1
		repro.FromDense([]float64{0.7, 0.5}),  // d2
		repro.FromDense([]float64{0.1, 0.8}),  // d3
		repro.FromDense([]float64{0.1, 0.6}),  // d4
	}
	eng := repro.NewEngine(tuples, 2)

	q, err := repro.NewQuery([]int{0, 1}, []float64{0.8, 0.5})
	if err != nil {
		log.Fatal(err)
	}

	a, err := eng.Analyze(context.Background(), q, 2, repro.Options{Method: repro.CPT})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("top-2 result:")
	for rank, sc := range a.Result {
		fmt.Printf("  %d. tuple d%d (score %.2f)\n", rank+1, sc.ID+1, sc.Score)
	}

	fmt.Println("\nimmutable regions — how far each weight can move:")
	for _, reg := range a.Regions {
		fmt.Println("  " + repro.RenderSlider(q, reg, 44))
	}

	fmt.Println("\nwhat happens at the bounds:")
	base := a.RankedIDs()
	for _, reg := range a.Regions {
		if len(reg.Right) > 0 {
			next, _ := reg.ResultAfter(base, true, 0)
			fmt.Printf("  raise w%d past %+.4f → result becomes %v\n", reg.Dim+1, reg.Right[0].Delta, plusOne(next))
		}
		if len(reg.Left) > 0 {
			next, _ := reg.ResultAfter(base, false, 0)
			fmt.Printf("  lower w%d past %+.4f → result becomes %v\n", reg.Dim+1, reg.Left[0].Delta, plusOne(next))
		}
	}
}

// plusOne renders 0-based tuple ids as the paper's d1..d4 names.
func plusOne(ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = fmt.Sprintf("d%d", id+1)
	}
	return out
}
