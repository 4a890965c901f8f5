package lists_test

import (
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lists"
)

// The bulk-load layer's evidence: the two datasets the bench/ harness
// sets up (cold-analyze and sharded-analyze build ST n = 200 000,
// refine-session and write-mix WSJ -scale 2), saved the way irgen and a
// checkpoint rewrite save them. MB/s counts the bytes of the two files.

type benchDataset struct {
	name string
	*dataset.Dataset
}

func benchDatasets() []benchDataset {
	return []benchDataset{
		{"st-200k", dataset.GenerateST(dataset.STConfig{N: 200000, Seed: 1})},
		{"wsj-2", dataset.GenerateWSJ(dataset.WSJConfig{Docs: 16000, Vocab: 24000, Seed: 1})},
	}
}

func BenchmarkSaveDataset(b *testing.B) {
	for _, d := range benchDatasets() {
		b.Run(d.name, func(b *testing.B) {
			dir := b.TempDir()
			tp, lp := filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")
			postings := 0
			for _, t := range d.Tuples {
				postings += len(t)
			}
			// Tuple file: an offset and a count per tuple, 12 bytes per
			// entry; list file: 12 bytes per posting.
			b.SetBytes(int64(12*d.N() + 12*postings + 12*postings))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := lists.SaveDataset(tp, lp, d.Tuples, d.M); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var columnarSink map[int]lists.PostingList

func BenchmarkBuildColumnar(b *testing.B) {
	for _, d := range benchDatasets() {
		b.Run(d.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				columnarSink = lists.BuildColumnar(d.Tuples)
			}
		})
	}
}
