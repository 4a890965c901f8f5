package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/vec"
)

// What /stats reports that is not a function of the requests served: the
// build block, and the three physical read-path counters that differ
// between the mapped and the pread-backed (nommap) store. What a query
// reply reports that is not: the wall-clock fields of its metrics.
var (
	buildBlock   = regexp.MustCompile(`"build":\{[^}]*\}`)
	readPathCtrs = regexp.MustCompile(`"(seq_pages|bytes_read|pool_bypass)":\d+`)
	wallClock    = regexp.MustCompile(`"(cpu_us|phase[123]_ns)":\d+`)
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
			{Tuple: []vec.Entry{{Dim: 0, Val: 0.42}}},
			{ID: &id, Tuple: []vec.Entry{{Dim: 0, Val: 0.9}, {Dim: 1, Val: 0.9}}},
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

// TestWireGolden pins, byte for byte, the three replies whose bodies are
// the engine's own structs rendered by their json tags — one /analyze at
// φ = 1 (core.Perturbation), one /shard/topk and one /shard/analyze
// (topk.Scored, projections and class mask included). The goldens were
// generated while server-side mirror structs still copied every field,
// so a tag that drifts from the wire name fails here. Requests are raw
// JSON: the test must not depend on the types it pins.
func TestWireGolden(t *testing.T) {
	ts := testServer(t)
	send := func(path, body string) string {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, %v: %s", path, resp.StatusCode, err, raw)
		}
		return wallClock.ReplaceAllString(string(raw), `"$1":0`)
	}
	const query = `"dims":[0,1],"weights":[0.8,0.5],"k":2`
	round1 := send("/shard/topk", `{`+query+`}`)
	var imposed struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal([]byte(round1), &imposed); err != nil {
		t.Fatal(err)
	}
	for _, reply := range []struct{ name, got string }{
		{"analyze", send("/analyze", `{`+query+`,"phi":1,"method":"cpt"}`)},
		{"shard_topk", round1},
		{"shard_analyze", send("/shard/analyze", `{`+query+`,"base":0,"imposed":`+string(imposed.Result)+`,"phi":1,"method":"cpt"}`)},
	} {
		golden := filepath.Join("testdata", "wire_"+reply.name+".golden")
		if *updateGolden {
			if err := os.WriteFile(golden, []byte(reply.got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run go test ./internal/server -run WireGolden -update-golden)", err)
		}
		if reply.got != string(want) {
			t.Errorf("%s drifted from %s:\ngot:  %swant: %s", reply.name, golden, reply.got, want)
		}
	}
}
