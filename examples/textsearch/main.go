// Textsearch: iterative query refinement on a document corpus — the
// paper's §1 motivating application.
//
// A user searches a TF-IDF vector-space corpus with weighted terms. The
// immutable regions tell her exactly how far each term weight must move
// to visibly change the top-10, so she never wastes a refinement step on
// a minuscule adjustment. The program simulates three refinement rounds:
// each round bumps the weight of the most sensitive term just past its
// region bound and re-runs the query.
//
// Run: go run ./examples/textsearch
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
	"repro/internal/dataset"
)

func main() {
	// A ~4000-document synthetic corpus standing in for WSJ (see
	// docs/figures.md on the substitution).
	corpus := dataset.GenerateWSJ(dataset.WSJConfig{Docs: 4000, Vocab: 6000, MeanTerms: 30, Seed: 7})
	eng := repro.NewEngine(corpus.Tuples, corpus.M)

	// Four query terms with TF-IDF-style weights.
	rng := rand.New(rand.NewSource(11))
	q, err := corpus.SampleQuery(rng, 4, 60)
	if err != nil {
		log.Fatal(err)
	}

	const k = 10
	for round := 1; round <= 3; round++ {
		a, err := eng.Analyze(context.Background(), q, k, repro.Options{Method: repro.CPT})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== round %d: query terms %v, weights %.3f ===\n", round, q.Dims, q.Weights)
		fmt.Printf("top-%d documents: %v\n", k, a.RankedIDs())
		for _, reg := range a.Regions {
			fmt.Println("  " + repro.RenderSlider(q, reg, 40))
		}
		fmt.Printf("  (CPT evaluated %.1f candidates/term; Scan would have evaluated %d)\n",
			a.Metrics.EvaluatedPerDimAvg(), scanCount(eng, q, k))

		// Pick the most sensitive term: the narrowest upward headroom
		// with a known perturbation, and push just past the bound.
		best := -1
		bestHi := 2.0
		for i, reg := range a.Regions {
			if len(reg.Right) > 0 && reg.Hi < bestHi {
				best, bestHi = i, reg.Hi
			}
		}
		if best < 0 {
			fmt.Println("no upward perturbation available; stopping")
			return
		}
		reg := a.Regions[best]
		next, err := reg.ResultAfter(a.RankedIDs(), true, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("refining: +%.4f on term %d flips the result to %v\n\n", reg.Hi+1e-6, reg.Dim, next)
		q = q.Adjust(reg.Dim, reg.Hi+1e-6)
	}
}

// scanCount runs the baseline for comparison and returns its evaluated
// candidate total.
func scanCount(eng *repro.Engine, q repro.Query, k int) int {
	a, err := eng.Analyze(context.Background(), q, k, repro.Options{Method: repro.Scan})
	if err != nil {
		log.Fatal(err)
	}
	return a.Metrics.Evaluated
}
