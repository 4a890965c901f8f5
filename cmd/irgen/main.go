// Command irgen generates one of the three evaluation datasets (WSJ-like
// corpus, KB-like image features, ST correlated synthetic) and persists
// it in the library's on-disk format (tuples.dat + lists.dat), printing
// the structural statistics docs/figures.md gives for each.
//
// Usage:
//
//	irgen -dataset wsj -out /tmp/wsj -scale 1
//	irgen -dataset st -n 1000000        # paper-scale ST
//	irgen -dataset st -out /tmp/st -shards 4
//	                 # range-partitioned: shard-<i>/ dirs + shards.json
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/lists"
	"repro/internal/shard"
)

func main() {
	var (
		which  = flag.String("dataset", "wsj", "dataset to generate: wsj | kb | st")
		out    = flag.String("out", ".", "output directory for tuples.dat and lists.dat")
		scale  = flag.Float64("scale", 1, "cardinality multiplier over laptop defaults")
		n      = flag.Int("n", 0, "explicit cardinality (overrides -scale)")
		m      = flag.Int("m", 0, "explicit dimensionality (overrides -scale; st is fixed at 20)")
		seed   = flag.Int64("seed", 1, "generator seed")
		shards = flag.Int("shards", 0, "range-partition the output into this many shard-<i>/ directories plus a shards.json manifest (0 = single dataset)")
	)
	flag.Parse()

	sc := func(base int) int {
		if *n > 0 {
			return *n
		}
		v := int(float64(base) * *scale)
		if v < 100 {
			v = 100
		}
		return v
	}
	dim := func(base int) int {
		if *m > 0 {
			return *m
		}
		v := int(float64(base) * *scale)
		if v < 50 {
			v = 50
		}
		return v
	}

	start := time.Now()
	var d *dataset.Dataset
	switch *which {
	case "wsj":
		d = dataset.GenerateWSJ(dataset.WSJConfig{Docs: sc(8000), Vocab: dim(12000), Seed: *seed})
	case "kb":
		d = dataset.GenerateKB(dataset.KBConfig{Images: sc(8000), Features: dim(1200), Seed: *seed})
	case "st":
		d = dataset.GenerateST(dataset.STConfig{N: sc(50000), Seed: *seed})
	default:
		fmt.Fprintf(os.Stderr, "irgen: unknown dataset %q (want wsj, kb or st)\n", *which)
		os.Exit(2)
	}
	generated := time.Since(start)

	// The statistics read the tuples only, so they run beside the save.
	type timedStats struct {
		dataset.Stats
		took time.Duration
	}
	statsDone := make(chan timedStats, 1)
	go func() {
		t0 := time.Now()
		st := dataset.ComputeStats(d, rand.New(rand.NewSource(*seed)), 16)
		statsDone <- timedStats{st, time.Since(t0)}
	}()

	// One save per output directory: the whole dataset, or with -shards
	// the range partition engine.OpenShard and the coordinator's Map
	// expect — shard i owns global ids [bases[i], bases[i+1]) renumbered
	// from 0. Partitions are saved side by side, as many at a time as
	// there are CPUs; the timing line reports the slowest one.
	dirs, bases := []string{*out}, []int{0}
	if *shards > 1 {
		bases = shard.EvenBases(d.N(), *shards)
		dirs = make([]string, *shards)
		for i := range dirs {
			dirs[i] = filepath.Join(*out, engine.ShardDirName(i))
		}
	}
	times := make([]lists.SaveTimes, len(dirs))
	errs := make([]error, len(dirs))
	slots := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, dir := range dirs {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		part := d.Tuples[bases[i]:]
		if i+1 < len(bases) {
			part = d.Tuples[bases[i]:bases[i+1]]
		}
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-slots }()
			times[i], errs[i] = lists.SaveDatasetTimed(filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat"), part, d.M)
		}()
	}
	wg.Wait()
	var saved lists.SaveTimes
	for i, err := range errs {
		if err != nil {
			fatal(err)
		}
		saved.Build = max(saved.Build, times[i].Build)
		saved.Write = max(saved.Write, times[i].Write)
	}
	var files []string
	for _, dir := range dirs {
		files = append(files, filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat"))
	}
	if *shards > 1 {
		mp := filepath.Join(*out, "shards.json")
		if err := shard.WriteManifest(mp, shard.Manifest{Shards: *shards, N: d.N(), M: d.M, Bases: bases}); err != nil {
			fatal(err)
		}
		files = append(files, mp)
	}
	// Each file with its size, so a format change shows in the output.
	written := make([]string, len(files))
	for i, f := range files {
		info, err := os.Stat(f)
		if err != nil {
			fatal(err)
		}
		written[i] = fmt.Sprintf("%s (%d B)", f, info.Size())
	}

	st := <-statsDone
	fmt.Printf("dataset   : %s\n", d.Name)
	fmt.Printf("tuples    : %d  (dim %d)\n", st.N, st.M)
	fmt.Printf("postings  : %d  (mean nnz %.1f)\n", st.Postings, st.MeanNNZ)
	fmt.Printf("lists     : max %d, median %d, gini %.2f\n", st.MaxListLen, st.MedListLen, st.GiniListLen)
	fmt.Printf("pair corr : %.3f\n", st.MeanPairCorr)
	fmt.Printf("written   : %s\n", strings.Join(written, ", "))
	fmt.Printf("timing    : generate %d ms, build %d ms, write %d ms, stats %d ms (beside the save), total %d ms\n",
		generated.Milliseconds(), saved.Build.Milliseconds(), saved.Write.Milliseconds(), st.took.Milliseconds(), time.Since(start).Milliseconds())
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "irgen: %v\n", err)
	os.Exit(1)
}
