package shard

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/server"
)

// call serves one request straight through a handler.
func call(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDialectParity pins that a coordinator front and a single node
// speak one HTTP dialect because they are one implementation: the same
// malformed requests get the same status and the same error envelope
// from both — whether the coordinator reaches its shards in process or
// over HTTP, where a shard's own 400 must come back as the front's 400,
// not as a 502 — the routes a hand-made coordinator front once lacked
// (/batchanalyze, /batchtopk, /readyz, /stats, /debug/slowlog) answer,
// and batch items match per-item single-node answers bit for bit. A
// second copy of the dialect drifting from internal/server fails here.
func TestDialectParity(t *testing.T) {
	rng := rand.New(rand.NewSource(4401))
	cs := fixture.RandCase(rng, 60, 6, 2, 3)
	single := server.FromEngine(singleNode(cs.Tuples, cs.M)).Handler()
	coord, err := NewLocal(cs.Tuples, cs.M, 2, engine.Config{}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	front := NewHandler(coord)
	fronts := map[string]http.Handler{
		"coordinator":           front,
		"coordinator over HTTP": NewHandler(newHTTPCluster(t, cs.Tuples, cs.M, 2, Config{}).coord),
	}

	good := server.QueryRequest{Dims: cs.Q.Dims, Weights: cs.Q.Weights, K: cs.K}
	with := func(edit func(*server.QueryRequest)) string {
		req := good
		edit(&req)
		return mustJSON(t, req)
	}
	dupDims := with(func(r *server.QueryRequest) {
		r.Dims = []int{cs.Q.Dims[0], cs.Q.Dims[0]}
		r.Weights = []float64{0.5, 0.5}
	})
	zeroK := with(func(r *server.QueryRequest) { r.K = 0 })
	outOfRange := with(func(r *server.QueryRequest) { r.Dims = []int{0, cs.M + 3} })

	posts := []string{"/topk", "/analyze", "/batchtopk", "/batchanalyze", "/update", "/delete", "/shard/analyze"}
	type probe struct {
		name, method, path, body string
		want                     int
	}
	var probes []probe
	for _, p := range posts {
		probes = append(probes,
			probe{"GET " + p, http.MethodGet, p, "", http.StatusMethodNotAllowed},
			probe{"bad JSON " + p, http.MethodPost, p, "{", http.StatusBadRequest})
	}
	probes = append(probes,
		probe{"unknown method", http.MethodPost, "/analyze", with(func(r *server.QueryRequest) { r.Method = "nope" }), http.StatusBadRequest},
		probe{"duplicate dims /topk", http.MethodPost, "/topk", dupDims, http.StatusBadRequest},
		probe{"duplicate dims /analyze", http.MethodPost, "/analyze", dupDims, http.StatusBadRequest},
		probe{"k=0 /topk", http.MethodPost, "/topk", zeroK, http.StatusBadRequest},
		probe{"k=0 /analyze", http.MethodPost, "/analyze", zeroK, http.StatusBadRequest},
		probe{"negative phi", http.MethodPost, "/analyze", with(func(r *server.QueryRequest) { r.Phi = -1 }), http.StatusBadRequest},
		probe{"dim out of range /topk", http.MethodPost, "/topk", outOfRange, http.StatusBadRequest},
		probe{"dim out of range /analyze", http.MethodPost, "/analyze", outOfRange, http.StatusBadRequest},
		probe{"empty analyze batch", http.MethodPost, "/batchanalyze", `{"queries":[]}`, http.StatusBadRequest},
		probe{"empty topk batch", http.MethodPost, "/batchtopk", `{"queries":[]}`, http.StatusBadRequest},
		probe{"empty op batch", http.MethodPost, "/update", `{"ops":[]}`, http.StatusBadRequest},
		probe{"empty tuple", http.MethodPost, "/update", `{"ops":[{"id":3,"tuple":[]}]}`, http.StatusOK},
		probe{"delete without ids", http.MethodPost, "/delete", `{"ids":[]}`, http.StatusBadRequest},
	)
	for _, p := range probes {
		replies := map[string]*httptest.ResponseRecorder{"single node": call(single, p.method, p.path, p.body)}
		for who, h := range fronts {
			replies[who] = call(h, p.method, p.path, p.body)
		}
		for who, w := range replies {
			if w.Code != p.want {
				t.Errorf("%s: %s answered %d %s, want %d", p.name, who, w.Code, w.Body, p.want)
				continue
			}
			if p.want == http.StatusOK {
				// Per-op shape errors are reported in place by the shared
				// parser, before any Querier is involved.
				if s := replies["single node"]; w.Body.String() != s.Body.String() {
					t.Errorf("%s: bodies differ:\nsingle node: %s%s: %s", p.name, s.Body, who, w.Body)
				}
				continue
			}
			var e map[string]string
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || len(e) != 1 || e["error"] == "" {
				t.Errorf("%s: %s error body %q is not {\"error\": ...}", p.name, who, w.Body)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("%s: %s error Content-Type %q", p.name, who, ct)
			}
		}
	}

	// Batches through the coordinator answer per item, errors in place,
	// each item bit-identical to the single node's answer to that item
	// alone. Neither reports a cache disposition it does not have.
	items := []server.QueryRequest{good, {Dims: cs.Q.Dims, Weights: cs.Q.Weights, K: 0}, good, good}
	items[2].K, items[2].Phi = cs.K+1, 1
	items[3].Method = "scan"
	batch := mustJSON(t, server.BatchAnalyzeRequest{Queries: items})

	var analyses server.BatchAnalyzeResponse
	if w := call(front, http.MethodPost, "/batchanalyze", batch); w.Code != http.StatusOK {
		t.Fatalf("coordinator /batchanalyze: %d %s", w.Code, w.Body)
	} else if err := json.Unmarshal(w.Body.Bytes(), &analyses); err != nil {
		t.Fatal(err)
	}
	var ranked server.BatchTopKResponse
	if w := call(front, http.MethodPost, "/batchtopk", batch); w.Code != http.StatusOK {
		t.Fatalf("coordinator /batchtopk: %d %s", w.Code, w.Body)
	} else if err := json.Unmarshal(w.Body.Bytes(), &ranked); err != nil {
		t.Fatal(err)
	}
	if len(analyses.Responses) != len(items) || len(ranked.Responses) != len(items) {
		t.Fatalf("batch answered %d analyses and %d rankings for %d items", len(analyses.Responses), len(ranked.Responses), len(items))
	}
	for i, it := range items {
		tag := fmt.Sprintf("batch item %d", i)
		got, gotTop := analyses.Responses[i], ranked.Responses[i]
		if it.K == 0 {
			if got.Error == "" || gotTop.Error == "" || got.Result != nil || gotTop.Result != nil {
				t.Errorf("%s: invalid item not reported in place: %+v / %+v", tag, got, gotTop)
			}
			continue
		}
		if got.Error != "" || gotTop.Error != "" {
			t.Errorf("%s: errors %q / %q", tag, got.Error, gotTop.Error)
			continue
		}
		var want server.AnalyzeResponse
		if w := call(single, http.MethodPost, "/analyze", mustJSON(t, it)); w.Code != http.StatusOK {
			t.Fatalf("%s: single node /analyze: %d %s", tag, w.Code, w.Body)
		} else if err := json.Unmarshal(w.Body.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Result, want.Result) || !reflect.DeepEqual(got.Regions, want.Regions) {
			t.Errorf("%s: /batchanalyze differs from the single node:\n got %+v %+v\nwant %+v %+v",
				tag, got.Result, got.Regions, want.Result, want.Regions)
		}
		if !reflect.DeepEqual(gotTop.Result, want.Result) {
			t.Errorf("%s: /batchtopk %+v, single node %+v", tag, gotTop.Result, want.Result)
		}
		if got.Cache != "" || gotTop.Cache != "" {
			t.Errorf("%s: merged answer reports cache %q/%q", tag, got.Cache, gotTop.Cache)
		}
	}
	if w := call(front, http.MethodPost, "/topk", mustJSON(t, good)); w.Code != http.StatusOK || w.Header().Get("X-Cache") != "" {
		t.Errorf("coordinator /topk: status %d, X-Cache %q; want 200 and no cache disposition", w.Code, w.Header().Get("X-Cache"))
	}

	// The operational routes come with the shared server.
	if w := call(front, http.MethodGet, "/readyz", ""); w.Code != http.StatusOK {
		t.Errorf("coordinator /readyz: %d %s", w.Code, w.Body)
	}
	var slow server.SlowlogResponse
	if w := call(front, http.MethodGet, "/debug/slowlog", ""); w.Code != http.StatusOK {
		t.Errorf("coordinator /debug/slowlog: %d %s", w.Code, w.Body)
	} else if err := json.Unmarshal(w.Body.Bytes(), &slow); err != nil || slow.ThresholdMs <= 0 {
		t.Errorf("coordinator /debug/slowlog body %q: %v", w.Body, err)
	}
	var st server.StatsResponse
	if w := call(front, http.MethodGet, "/stats", ""); w.Code != http.StatusOK {
		t.Fatalf("coordinator /stats: %d %s", w.Code, w.Body)
	} else if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Build.StartTimeUnix == 0 {
		t.Errorf("coordinator /stats has no build block: %+v", st)
	}
	// As on a re-seeding standby: no engine here, so no engine blocks.
	if st.Cache != nil || st.Mutations != nil || st.WAL != nil || st.Overlay != nil || st.SeqPages != 0 || st.RandReads != 0 {
		t.Errorf("coordinator /stats reports engine blocks it cannot have: %+v", st)
	}
	// A coordinator is not a shard: the shard RPCs are refused, not served.
	if w := call(front, http.MethodPost, "/shard/topk", mustJSON(t, good)); w.Code != http.StatusNotFound {
		t.Errorf("coordinator /shard/topk: %d, want 404", w.Code)
	}
}
