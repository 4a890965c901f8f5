// Imagesearch: feature-weight tuning on an image database — the paper's
// KB scenario (§7.1), including a cost comparison of all four algorithms
// on the same query.
//
// An image search engine ranks images by a weighted combination of
// feature activations (color, texture, quality, ...). The immutable
// regions tell the user which feature weights the current page of
// results is robust to. The example also shows why CPT matters: it
// prints how many candidates each algorithm variant had to examine and
// the modeled I/O cost on a spinning disk.
//
// Run: go run ./examples/imagesearch
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro"
	"repro/internal/dataset"
	"repro/internal/storage"
)

func main() {
	// ~6000 images with moderately correlated feature blocks, standing
	// in for the KB dataset (see docs/figures.md on the substitution).
	images := dataset.GenerateKB(dataset.KBConfig{Images: 6000, Features: 900, Seed: 21})
	eng := repro.NewEngine(images.Tuples, images.M)

	// Eight feature dimensions with user-tuned weights.
	rng := rand.New(rand.NewSource(5))
	q, err := images.SampleQuery(rng, 8, 80)
	if err != nil {
		log.Fatal(err)
	}

	const k = 10
	a, err := eng.Analyze(context.Background(), q, k, repro.Options{Method: repro.CPT})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-%d images for %d-feature query: %v\n\n", k, q.Len(), a.RankedIDs())
	fmt.Println("robustness of the result page per feature weight:")
	for _, reg := range a.Regions {
		fmt.Println("  " + repro.RenderSlider(q, reg, 40))
	}

	fmt.Println("\nalgorithm comparison on this query:")
	fmt.Printf("  %-6s %12s %14s %14s %12s\n", "method", "evaluated", "modeled I/O", "CPU", "memory")
	for _, m := range []repro.Method{repro.Scan, repro.Thres, repro.Prune, repro.CPT} {
		res, err := eng.Analyze(context.Background(), q, k, repro.Options{Method: m})
		if err != nil {
			log.Fatal(err)
		}
		met := res.Metrics
		io := storage.DefaultDiskModel.Time(met.SeqPages, met.RandReads)
		fmt.Printf("  %-6v %12d %14v %14v %10dB\n", m, met.Evaluated, io, met.CPU().Round(1000), met.MemBytes)
	}
}
