package dataset

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/bulk.golden from this tree's output")

// TestBulkLoadGolden pins what the generators, the statistics and the
// dataset writer produce, byte for byte: the golden file was written at
// the commit before the bulk-load kernel replaced the comparator sort
// (irgen's ST -n 2000, WSJ -scale 0.25, KB defaults, and ST -n 2000
// -shards 2, all seed 1), so a pass means files and stats lines did not
// move. The harness's exact I/O counters rest on this.
func TestBulkLoadGolden(t *testing.T) {
	st := GenerateST(STConfig{N: 2000, Seed: 1})
	sets := []struct {
		name string
		d    *Dataset
	}{
		{"st", st},
		{"wsj", GenerateWSJ(WSJConfig{Docs: 2000, Vocab: 3000, Seed: 1})},
		{"kb", GenerateKB(KBConfig{Images: 8000, Features: 1200, Seed: 1})},
		{"st-shard-0", New("ST", st.Tuples[:1000], st.M)},
		{"st-shard-1", New("ST", st.Tuples[1000:], st.M)},
	}
	var got strings.Builder
	dir := t.TempDir()
	for _, s := range sets {
		tp, lp := filepath.Join(dir, s.name+".tuples"), filepath.Join(dir, s.name+".lists")
		if err := s.d.Save(tp, lp); err != nil {
			t.Fatal(err)
		}
		for _, p := range []string{tp, lp} {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s sha256 %x\n", filepath.Base(p), sha256.Sum256(raw))
		}
		stats := ComputeStats(s.d, rand.New(rand.NewSource(1)), 16)
		fmt.Fprintf(&got, "%s stats %+v\n", s.name, stats)
	}
	golden := filepath.Join("testdata", "bulk.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("bulk-load output moved.\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}
