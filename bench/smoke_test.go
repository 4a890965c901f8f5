package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/lists"
	"repro/internal/server"
	"repro/internal/shard"
)

// Small in-memory stand-ins for the two benchmark datasets, shared by
// the tests of this package.
var smallWorlds = sync.OnceValue(func() map[string]*world {
	st := dataset.GenerateST(dataset.STConfig{N: 3000, Seed: datasetSeed})
	wsj := dataset.GenerateWSJ(dataset.WSJConfig{Docs: 3000, Vocab: 4000, Seed: datasetSeed})
	return map[string]*world{
		"st":  newWorld(st.Tuples, st.M),
		"wsj": newWorld(wsj.Tuples, wsj.M),
	}
})

func smallWorld(sp spec) *world { return smallWorlds()[sp.irgenArgs[1]] }

// cannedReply answers a refinement stream deterministically without a
// server: every region is ±0.05 and a move is certified iff it stays
// within it.
func cannedReply(s step, anchor []float64) *reply {
	r := &reply{status: http.StatusOK}
	switch s.class {
	case opAnalyze:
		for _, d := range s.q.Dims {
			r.regions = append(r.regions, region{Dim: d, Lo: -0.05, Hi: 0.05})
		}
	case opTopK:
		r.cache = "hit-region"
		for j, w := range s.q.Weights {
			if math.Abs(w-anchor[j]) > 0.05 {
				r.cache = "miss"
			}
		}
	}
	return r
}

// TestStreamGolden pins the first 100 requests of every workload's
// client-0 stream for seed 1: a change to a generator changes what every
// later run measures, and must show up here.
func TestStreamGolden(t *testing.T) {
	golden := map[string]string{
		"cold-analyze":    "0438e1d3e0b3a028ab5a5d2ffccacfb2120d7771a11be133e5840d232feeaefc",
		"refine-session":  "0a8ca0f1605c094433da4dd17b04875e30532fecc1f95a873597130f841531c9",
		"write-mix":       "2c2e0b89d02e95a39e1eca902ef46ac7bcfcecde6fdb93dad34ca596c4076d7d",
		"sharded-analyze": "c7db050b5ee48a72927528f9f7079109c7bf1210fd2b971a961bba182b6fdadf",
	}
	for _, sp := range specs {
		st := sp.stream(smallWorld(sp), 1, 0)
		h := sha256.New()
		var anchor []float64
		for i := 0; i < 100; i++ {
			s := st.next()
			h.Write([]byte(s.path))
			h.Write(s.body)
			if s.class == opAnalyze {
				anchor = s.q.Weights
			}
			st.observe(s, cannedReply(s, anchor))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != golden[sp.name] {
			t.Errorf("%s: first 100 requests hash to %s, golden is %s", sp.name, got, golden[sp.name])
		}
		// Same seed, same stream; another seed, another stream.
		a, b, c := sp.stream(smallWorld(sp), 1, 0).next(), sp.stream(smallWorld(sp), 1, 0).next(), sp.stream(smallWorld(sp), 2, 0).next()
		if string(a.body) != string(b.body) {
			t.Errorf("%s: seed 1 gave two different first requests", sp.name)
		}
		if string(a.body) == string(c.body) {
			t.Errorf("%s: seeds 1 and 2 gave the same first request", sp.name)
		}
	}
}

// TestSmokeMixes drives 200 requests of each mix against in-process
// servers over httptest and asserts that the mix exercises what its
// name claims and that the oracle accepts every answer.
func TestSmokeMixes(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			w := smallWorld(sp)
			var handler http.Handler
			var eng *engine.Engine
			if sp.shards > 0 {
				coord, err := shard.NewLocal(w.tuples, w.m, sp.shards, engine.Config{}, shard.Config{})
				if err != nil {
					t.Fatal(err)
				}
				handler = shard.NewHandler(coord)
			} else {
				eng = engine.New(lists.NewMemIndex(append(w.tuples[:0:0], w.tuples...), w.m), engine.Config{})
				handler = server.FromEngine(eng).Handler()
			}
			ts := httptest.NewServer(handler)
			defer ts.Close()

			l := &live{world: w, streams: sp.streams(w, 1), warmAcks: make([][]writeOp, sp.clients)}
			for range sp.clients {
				l.doers = append(l.doers, newDoer(ts.URL))
			}
			defer l.stop()
			logs := driveAll(l.doers, l.streams, 200/sp.clients, 0)
			var topks, writes int
			for _, lg := range logs {
				if lg.failed != 0 {
					t.Fatalf("%d of %d requests failed", lg.failed, lg.attempted)
				}
				for _, op := range lg.ops {
					switch op.class {
					case opTopK:
						topks++
					case opUpdate:
						writes++
					}
				}
			}
			if rep := verify(l, logs); rep.rejected != 0 {
				t.Errorf("oracle rejected %d of %d answers; first: %s", rep.rejected, rep.checked, rep.first)
			}
			if eng == nil {
				return
			}
			cs, ms := eng.CacheStats(), eng.MutationStats()
			switch sp.name {
			case "cold-analyze":
				if cs.Hits != 0 || cs.RegionHits != 0 || cs.Misses == 0 {
					t.Errorf("cold-analyze must miss every time: %+v", cs)
				}
			case "refine-session":
				if share := float64(cs.RegionHits) / float64(topks); share <= 0.7 {
					t.Errorf("region-hit share %.2f of %d /topk, want above 0.7", share, topks)
				}
			case "write-mix":
				if writes == 0 || ms.CacheChecked == 0 {
					t.Errorf("write-mix wrote %d batches and checked %d cached entries", writes, ms.CacheChecked)
				}
				if ms.CacheEvicted == 0 {
					t.Errorf("write-mix evicted no cached entry: %+v", ms)
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the harness in
// step: the driver reads metric names from the file, the harness prints
// them from code.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	units := func(ms []named) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	codeW := map[string]string{}
	for _, sp := range specs {
		codeW[sp.name] = ""
	}
	for _, tc := range []struct {
		what       string
		file, code map[string]string
	}{
		{"workloads", units(doc.Workloads), codeW},
		{"end_to_end", units(doc.EndToEnd), endToEndUnits},
		{"per_layer", units(doc.PerLayer), perLayerUnits},
	} {
		if !maps.Equal(tc.file, tc.code) {
			t.Errorf("%s: BENCHMARK.json has %v, the code %v", tc.what, tc.file, tc.code)
		}
	}
}
