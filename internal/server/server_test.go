package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/lists"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	tuples, _, _ := fixture.RunningExample()
	srv := FromEngine(engine.New(lists.NewMemIndex(tuples, 2), engine.Config{}))
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url string, body interface{}, out interface{}) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestTopKEndpoint(t *testing.T) {
	ts := testServer(t)
	var got []ResultEntry
	resp := post(t, ts.URL+"/topk", QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}, K: 2}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 0 {
		t.Fatalf("result %+v, want d2,d1", got)
	}
	if math.Abs(got[0].Score-0.81) > 1e-12 {
		t.Fatalf("score %v", got[0].Score)
	}
}

func TestAnalyzeEndpoint(t *testing.T) {
	ts := testServer(t)
	var got AnalyzeResponse
	resp := post(t, ts.URL+"/analyze", QueryRequest{
		Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}, K: 2, Phi: 1, Method: "cpt",
	}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(got.Regions) != 2 {
		t.Fatalf("%d regions", len(got.Regions))
	}
	r1 := got.Regions[0]
	if math.Abs(r1.Lo-(-16.0/35)) > 1e-12 || math.Abs(r1.Hi-0.1) > 1e-12 {
		t.Fatalf("IR1 = (%v, %v)", r1.Lo, r1.Hi)
	}
	if len(r1.Left) != 2 || !r1.Left[0].Entry {
		t.Fatalf("left schedule %+v", r1.Left)
	}
	if got.Metrics.Evaluated == 0 || got.Metrics.RandReads == 0 {
		t.Fatalf("metrics empty: %+v", got.Metrics)
	}
}

func TestAnalyzeMethodSelection(t *testing.T) {
	ts := testServer(t)
	for _, m := range []string{"", "scan", "prune", "thres", "cpt"} {
		var got AnalyzeResponse
		resp := post(t, ts.URL+"/analyze", QueryRequest{
			Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}, K: 2, Method: m,
		}, &got)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("method %q: status %d", m, resp.StatusCode)
		}
		if math.Abs(got.Regions[0].Hi-0.1) > 1e-12 {
			t.Fatalf("method %q: IR1 upper %v", m, got.Regions[0].Hi)
		}
	}
}

func TestBadRequests(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name string
		req  QueryRequest
	}{
		{"zero k", QueryRequest{Dims: []int{0}, Weights: []float64{0.5}}},
		{"bad weights", QueryRequest{Dims: []int{0}, Weights: []float64{2}, K: 1}},
		{"length mismatch", QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.5}, K: 1}},
		{"dim out of range", QueryRequest{Dims: []int{9}, Weights: []float64{0.5}, K: 1}},
		{"negative phi", QueryRequest{Dims: []int{0}, Weights: []float64{0.5}, K: 1, Phi: -1}},
		{"unknown method", QueryRequest{Dims: []int{0}, Weights: []float64{0.5}, K: 1, Method: "nope"}},
	}
	for _, c := range cases {
		resp := post(t, ts.URL+"/analyze", c.req, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
	}
	// Garbage body.
	resp, err := http.Post(ts.URL+"/topk", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d", resp.StatusCode)
	}
	// Wrong verb.
	get, err := http.Get(ts.URL + "/topk")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /topk: status %d", get.StatusCode)
	}
}

// TestAnalyzeCacheDisposition drives the answer cache through the HTTP
// surface: first /analyze computes ("miss"), the identical repeat is
// served ("hit") with zero-I/O metrics and the same result and regions,
// no_cache bypasses, and /stats reports the counters.
func TestAnalyzeCacheDisposition(t *testing.T) {
	ts := testServer(t)
	req := QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}, K: 2, Phi: 1}
	var first, second, third AnalyzeResponse
	post(t, ts.URL+"/analyze", req, &first)
	post(t, ts.URL+"/analyze", req, &second)
	req.NoCache = true
	post(t, ts.URL+"/analyze", req, &third)

	if first.Cache != "miss" || second.Cache != "hit" || third.Cache != "bypass" {
		t.Fatalf("dispositions %q/%q/%q, want miss/hit/bypass", first.Cache, second.Cache, third.Cache)
	}
	if second.Metrics.RandReads != 0 || second.Metrics.SeqPages != 0 || second.Metrics.Evaluated != 0 {
		t.Fatalf("cache hit reported work: %+v", second.Metrics)
	}
	second.Metrics, first.Metrics, third.Metrics = MetricsJSON{}, MetricsJSON{}, MetricsJSON{}
	second.Cache, first.Cache, third.Cache = "", "", ""
	if !reflect.DeepEqual(first, second) || !reflect.DeepEqual(first, third) {
		t.Fatalf("cached/bypass responses diverge:\n%+v\n%+v\n%+v", first, second, third)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cache == nil || st.Cache.Hits != 1 || st.Cache.Bypasses != 1 || st.Cache.Entries != 1 {
		t.Fatalf("cache stats %+v", st.Cache)
	}
}

// TestTopKRegionServed: after an /analyze, an in-region /topk is
// certified by the cached regions (X-Cache: hit-region), an
// out-of-region one recomputes.
func TestTopKRegionServed(t *testing.T) {
	ts := testServer(t)
	post(t, ts.URL+"/analyze", QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}, K: 2}, nil)

	fetch := func(w0 float64) (string, []ResultEntry) {
		raw, _ := json.Marshal(QueryRequest{Dims: []int{0, 1}, Weights: []float64{w0, 0.5}, K: 2})
		resp, err := http.Post(ts.URL+"/topk", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []ResultEntry
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("X-Cache"), out
	}
	// IR1 = (−16/35, +0.1) around 0.8: 0.85 is inside, 0.95 is past it.
	if src, res := fetch(0.85); src != "hit-region" || res[0].ID != 1 {
		t.Fatalf("in-region: X-Cache=%q result=%v", src, res)
	}
	if src, res := fetch(0.95); src != "miss" || res[0].ID != 0 {
		t.Fatalf("out-of-region: X-Cache=%q result=%v", src, res)
	}
}

// TestBatchAnalyzeEndpoint exercises /batchanalyze: aligned responses,
// in-batch de-duplication, per-item errors, and cache hits on repeat
// batches.
func TestBatchAnalyzeEndpoint(t *testing.T) {
	ts := testServer(t)
	q := QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}, K: 2, Phi: 1}
	bad := QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}} // k=0
	batch := BatchAnalyzeRequest{Queries: []QueryRequest{q, q, bad}}

	var resp BatchAnalyzeResponse
	post(t, ts.URL+"/batchanalyze", batch, &resp)
	if len(resp.Responses) != 3 {
		t.Fatalf("%d responses", len(resp.Responses))
	}
	r0, r1, r2 := resp.Responses[0], resp.Responses[1], resp.Responses[2]
	if r0.Error != "" || r0.Cache != "miss" {
		t.Fatalf("item 0: %+v", r0)
	}
	if r1.Error != "" || r1.Cache != "dedup" {
		t.Fatalf("item 1 cache %q, want dedup", r1.Cache)
	}
	if r2.Error == "" {
		t.Fatal("invalid item accepted")
	}
	if !reflect.DeepEqual(r0.Result, r1.Result) || !reflect.DeepEqual(r0.Regions, r1.Regions) {
		t.Fatal("deduped answers diverge")
	}
	// The same analysis through /analyze must agree.
	var single AnalyzeResponse
	post(t, ts.URL+"/analyze", q, &single)
	if !reflect.DeepEqual(single.Result, r0.Result) || !reflect.DeepEqual(single.Regions, r0.Regions) {
		t.Fatal("batch and single answers diverge")
	}

	var again BatchAnalyzeResponse
	post(t, ts.URL+"/batchanalyze", BatchAnalyzeRequest{Queries: []QueryRequest{q}}, &again)
	if again.Responses[0].Cache != "hit" {
		t.Fatalf("repeat batch cache %q, want hit", again.Responses[0].Cache)
	}

	// Malformed envelopes are 400s.
	for _, body := range []string{`{`, `{"queries":[]}`} {
		resp, err := http.Post(ts.URL+"/batchanalyze", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d", body, resp.StatusCode)
		}
	}
}

// TestBatchTopKEndpoint: a fused batch of same-subspace ranked queries
// answers identically to /topk per query, per-item errors are reported
// in place, and a region-certified repeat is a cache hit.
func TestBatchTopKEndpoint(t *testing.T) {
	ts := testServer(t)
	q1 := QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}, K: 2}
	q2 := QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.3, 0.9}, K: 2}
	bad := QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}} // k=0

	var resp BatchTopKResponse
	post(t, ts.URL+"/batchtopk", BatchTopKRequest{Queries: []QueryRequest{q1, q2, bad}}, &resp)
	if len(resp.Responses) != 3 {
		t.Fatalf("%d responses", len(resp.Responses))
	}
	for i, qr := range []QueryRequest{q1, q2} {
		r := resp.Responses[i]
		if r.Error != "" || r.Cache != "miss" {
			t.Fatalf("item %d: %+v", i, r)
		}
		var single []ResultEntry
		post(t, ts.URL+"/topk", qr, &single)
		if !reflect.DeepEqual(r.Result, single) {
			t.Fatalf("item %d: batch %+v, /topk %+v", i, r.Result, single)
		}
	}
	if resp.Responses[2].Error == "" {
		t.Fatal("invalid item accepted")
	}

	// An analysis at q1's weights certifies the repeat via its regions.
	post(t, ts.URL+"/analyze", q1, nil)
	var again BatchTopKResponse
	post(t, ts.URL+"/batchtopk", BatchTopKRequest{Queries: []QueryRequest{q1}}, &again)
	if again.Responses[0].Cache != "hit-region" {
		t.Fatalf("repeat cache %q, want hit-region", again.Responses[0].Cache)
	}

	for _, body := range []string{`{`, `{"queries":[]}`} {
		resp, err := http.Post(ts.URL+"/batchtopk", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d", body, resp.StatusCode)
		}
	}
}

func TestStatsAndHealth(t *testing.T) {
	ts := testServer(t)
	post(t, ts.URL+"/topk", QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}, K: 2}, nil)
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.RandReads == 0 || st.SeqPages == 0 {
		t.Fatalf("stats %+v, want non-zero after a query", st)
	}
	h, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", h.StatusCode)
	}
}
