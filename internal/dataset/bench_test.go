package dataset

import "testing"

// The generators' share of irgen's set-up, on the datasets the bench/
// harness builds (ST n = 200 000, WSJ -scale 2) and on KB at irgen's
// defaults.

var generateSink *Dataset

func BenchmarkGenerate(b *testing.B) {
	gens := []struct {
		name string
		gen  func() *Dataset
	}{
		{"st-200k", func() *Dataset { return GenerateST(STConfig{N: 200000, Seed: 1}) }},
		{"wsj-2", func() *Dataset { return GenerateWSJ(WSJConfig{Docs: 16000, Vocab: 24000, Seed: 1}) }},
		{"kb", func() *Dataset { return GenerateKB(KBConfig{Seed: 1}) }},
	}
	for _, g := range gens {
		b.Run(g.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				generateSink = g.gen()
			}
		})
	}
}
