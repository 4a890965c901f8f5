package shard

import (
	"os"
	"path/filepath"
	"testing"
)

// manifestSeeds are shards.json documents: what irgen -shards writes, and
// each manifest LoadManifest refuses.
var manifestSeeds = []struct {
	name, doc string
	ok        bool
}{
	{"irgen", `{"shards": 2, "n": 20000, "m": 20, "bases": [0, 10000]}`, true},
	{"empty-last-shard", `{"shards": 2, "n": 1, "m": 3, "bases": [0, 1]}`, true},
	{"last-base-past-n", `{"shards": 2, "n": 100, "m": 20, "bases": [0, 101]}`, false},
	{"negative-n", `{"shards": 1, "n": -1, "m": 20, "bases": [0]}`, false},
	{"negative-m", `{"shards": 1, "n": 10, "m": -1, "bases": [0]}`, false},
	{"bases-count", `{"shards": 3, "n": 10, "m": 2, "bases": [0, 5]}`, false},
	{"descending", `{"shards": 3, "n": 10, "m": 2, "bases": [0, 6, 5]}`, false},
	{"no-zero", `{"shards": 1, "n": 10, "m": 2, "bases": [1]}`, false},
}

func writeManifest(t testing.TB, doc []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "shards.json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadManifest: a manifest loads only when it partitions [0, N)
// among its shards; irproxy used to boot on a last base past N or a
// negative N or M.
func TestLoadManifest(t *testing.T) {
	for _, c := range manifestSeeds {
		_, err := LoadManifest(writeManifest(t, []byte(c.doc)))
		if (err == nil) != c.ok {
			t.Errorf("%s: err %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// FuzzLoadManifest: whatever shards.json holds, LoadManifest fails or
// every id in [0, N) has an owner in [0, Shards). Owner is monotone in
// the id, so the two ends of the range stand for every id in it.
func FuzzLoadManifest(f *testing.F) {
	for _, c := range manifestSeeds {
		f.Add([]byte(c.doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		mf, err := LoadManifest(writeManifest(t, doc))
		if err != nil || mf.N == 0 {
			return
		}
		mp, err := mf.Map()
		if err != nil {
			t.Fatalf("loaded manifest %+v has no map: %v", mf, err)
		}
		for _, id := range []int{0, mf.N - 1} {
			if o := mp.Owner(id); o < 0 || o >= mf.Shards {
				t.Fatalf("manifest %+v: id %d owned by shard %d", mf, id, o)
			}
		}
	})
}
