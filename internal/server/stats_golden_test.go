package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/lists"
)

// What /stats reports that is not a function of the requests served: the
// build block, and the three physical read-path counters that differ
// between the mapped and the pread-backed (nommap) store.
var (
	buildBlock   = regexp.MustCompile(`"build":\{[^}]*\}`)
	readPathCtrs = regexp.MustCompile(`"(seq_pages|bytes_read|pool_bypass)":\d+`)
)

// TestStatsGolden pins the /stats body byte for byte — field names,
// order, omitempty behaviour — over an engine that fills every block:
// durable (wal, overlay), mutated (mutations) and cached (cache). The
// golden was generated before /stats rendered the engine's own structs,
// so a json tag that drifts on either side of that seam fails here.
func TestStatsGolden(t *testing.T) {
	tuples, _, _ := fixture.RunningExample()
	dir := t.TempDir()
	if err := lists.SaveDataset(filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat"), tuples, 2); err != nil {
		t.Fatal(err)
	}
	eng, err := engine.OpenDir(dir, 64, engine.Config{WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ts := httptest.NewServer(FromEngine(eng).Handler())
	defer ts.Close()

	q := QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}, K: 2, Phi: 1}
	post(t, ts.URL+"/analyze", q, nil) // miss
	post(t, ts.URL+"/analyze", q, nil) // exact hit
	q.Weights = []float64{0.8, 0.51}
	post(t, ts.URL+"/topk", q, nil)                                                                      // region hit
	post(t, ts.URL+"/analyze", QueryRequest{Dims: q.Dims, Weights: q.Weights, K: 2, NoCache: true}, nil) // bypass
	id := 1
	for _, resp := range []*http.Response{
		post(t, ts.URL+"/update", UpdateRequest{Ops: []UpdateOpJSON{
			{Tuple: []TupleEntryJSON{{Dim: 0, Val: 0.42}}},
			{ID: &id, Tuple: []TupleEntryJSON{{Dim: 0, Val: 0.9}, {Dim: 1, Val: 0.9}}},
		}}, nil),
		post(t, ts.URL+"/delete", DeleteRequest{IDs: []int{0}}, nil),
	} {
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("write status %d", resp.StatusCode)
		}
	}
	post(t, ts.URL+"/analyze", q, nil) // the writes evicted it: a miss the cache keeps

	got := buildBlock.ReplaceAllString(scrape(t, ts.URL+"/stats"), `"build":{}`)
	got = readPathCtrs.ReplaceAllString(got, `"$1":0`)
	golden := filepath.Join("testdata", "stats.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/server -run StatsGolden -update-golden)", err)
	}
	if got != string(want) {
		t.Fatalf("/stats drifted from testdata/stats.golden:\ngot:  %swant: %s", got, want)
	}
}
