package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/vec"
)

// TestOversizedQueryRejected is the crafted-request regression for the
// 64-dimension executor limit: 65 in-range dimensions used to panic in
// topk.New (killing the connection); now the server answers 400 and
// stays up.
func TestOversizedQueryRejected(t *testing.T) {
	var tuples []vec.Sparse
	for i := 0; i < 4; i++ {
		tuples = append(tuples, vec.MustSparse(vec.Entry{Dim: i, Val: 0.5}))
	}
	srv := FromEngine(engine.New(lists.NewMemIndex(tuples, 70), engine.Config{}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	dims := make([]int, 65)
	weights := make([]float64, 65)
	for i := range dims {
		dims[i], weights[i] = i, 0.5
	}
	for _, path := range []string{"/topk", "/analyze"} {
		resp := post(t, ts.URL+path, QueryRequest{Dims: dims, Weights: weights, K: 2}, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with 65 dims: status %d, want 400", path, resp.StatusCode)
		}
	}
	// The server survived and still answers valid queries.
	var got []ResultEntry
	resp := post(t, ts.URL+"/topk", QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.5, 0.5}, K: 2}, &got)
	if resp.StatusCode != http.StatusOK || len(got) != 2 {
		t.Fatalf("follow-up query: status %d result %v", resp.StatusCode, got)
	}
}

// padding yields n bytes of JSON whitespace without holding them.
type padding struct{ n int }

func (p *padding) Read(b []byte) (int, error) {
	if p.n == 0 {
		return 0, io.EOF
	}
	if len(b) > p.n {
		b = b[:p.n]
	}
	for i := range b {
		b[i] = ' '
	}
	p.n -= len(b)
	return len(b), nil
}

// TestOversizedBodyRejected: a request body over maxBodyBytes is cut
// off by the one decode helper with a 413, on a public write route and
// on the shard RPC with the largest legitimate payload alike, and the
// engine never sees the request. The body is well-formed JSON behind
// leading whitespace, so only the size can be what fails it.
func TestOversizedBodyRejected(t *testing.T) {
	tuples, _, _ := fixture.RunningExample()
	eng := engine.New(lists.NewMemIndex(tuples, 2), engine.Config{})
	h := FromEngine(eng).Handler()
	n := eng.N()

	bodies := map[string]string{
		"/update":        `{"ops":[{"tuple":[{"dim":0,"val":0.5}]}]}`,
		"/shard/analyze": `{"dims":[0,1],"weights":[0.8,0.5],"k":2,"imposed":[]}`,
	}
	for path, body := range bodies {
		r := httptest.NewRequest(http.MethodPost, path, io.MultiReader(&padding{n: maxBodyBytes}, strings.NewReader(body)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s with a %d-byte body: status %d, want 413", path, maxBodyBytes+len(body), w.Code)
		}
		var e map[string]string
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e["error"] == "" {
			t.Fatalf("%s: 413 body %q is not the JSON error envelope", path, w.Body.String())
		}
	}
	seq, rnd, _ := eng.Stats().Snapshot()
	if eng.MutationStats().Batches != 0 || eng.N() != n || seq != 0 || rnd != 0 {
		t.Fatalf("oversized requests reached the engine: %+v, n %d -> %d, %d seq pages, %d random reads",
			eng.MutationStats(), n, eng.N(), seq, rnd)
	}
	// The same bodies without the padding pass: size alone failed them.
	for path, body := range bodies {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s unpadded: status %d: %s", path, w.Code, w.Body.String())
		}
	}
}

// TestUpdateDeleteEndpoints drives the write path over HTTP: inserts,
// updates and deletes through /update and /delete, certificate
// accounting in the responses, mutation counters in /stats, and answers
// that track the live dataset.
func TestUpdateDeleteEndpoints(t *testing.T) {
	tuples, _, _ := fixture.RunningExample()
	cp := make([]vec.Sparse, len(tuples))
	for i, tu := range tuples {
		cp[i] = tu.Clone()
	}
	srv := FromEngine(engine.New(lists.NewMemIndex(cp, 2), engine.Config{}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Prime the cache with the running example's analysis.
	q := QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}, K: 2}
	var an AnalyzeResponse
	if resp := post(t, ts.URL+"/analyze", q, &an); resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status %d", resp.StatusCode)
	}

	// A certified-surviving update: d4 stays far below the result.
	var mu MutateResponse
	id3 := 3
	resp := post(t, ts.URL+"/update", UpdateRequest{Ops: []UpdateOpJSON{
		{ID: &id3, Tuple: []vec.Entry{{Dim: 0, Val: 0.1}, {Dim: 1, Val: 0.55}}},
	}}, &mu)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}
	if mu.Applied != 1 || mu.CacheChecked != 1 || mu.CacheEvicted != 0 || mu.CacheSurvived != 1 {
		t.Fatalf("update response %+v, want 1 applied / 1 survived", mu)
	}
	// The cached analysis still serves.
	var an2 AnalyzeResponse
	post(t, ts.URL+"/analyze", q, &an2)
	if an2.Cache != "hit" {
		t.Fatalf("post-update analyze cache %q, want hit", an2.Cache)
	}
	if !reflect.DeepEqual(an.Result, an2.Result) {
		t.Fatalf("surviving result changed: %v vs %v", an.Result, an2.Result)
	}

	// An insert that joins the result evicts and shows up in /topk.
	resp = post(t, ts.URL+"/update", UpdateRequest{Ops: []UpdateOpJSON{
		{Tuple: []vec.Entry{{Dim: 0, Val: 0.9}, {Dim: 1, Val: 0.9}}},
	}}, &mu)
	if resp.StatusCode != http.StatusOK || mu.Results[0].ID != 4 || mu.CacheEvicted != 1 {
		t.Fatalf("insert response %d %+v", resp.StatusCode, mu)
	}
	var top []ResultEntry
	post(t, ts.URL+"/topk", q, &top)
	if len(top) != 2 || top[0].ID != 4 {
		t.Fatalf("post-insert topk %v, want new tuple first", top)
	}

	// Delete the new leader; the old result returns.
	resp = post(t, ts.URL+"/delete", DeleteRequest{IDs: []int{4}}, &mu)
	if resp.StatusCode != http.StatusOK || mu.Applied != 1 {
		t.Fatalf("delete response %d %+v", resp.StatusCode, mu)
	}
	post(t, ts.URL+"/topk", q, &top)
	if !reflect.DeepEqual(top, an.Result) {
		t.Fatalf("post-delete topk %v, want original %v", top, an.Result)
	}

	// Per-op errors report in place without sinking the batch. An op
	// without coordinates must be rejected, not silently zero its
	// target.
	id0 := 0
	resp = post(t, ts.URL+"/update", UpdateRequest{Ops: []UpdateOpJSON{
		{ID: &[]int{99}[0], Tuple: []vec.Entry{{Dim: 0, Val: 0.5}}},  // out of range
		{Tuple: []vec.Entry{{Dim: 0, Val: 0.5}, {Dim: 0, Val: 0.6}}}, // duplicate dim
		{ID: &id0},                               // empty tuple
		{Tuple: []vec.Entry{{Dim: 1, Val: 0.2}}}, // fine
	}}, &mu)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed batch status %d", resp.StatusCode)
	}
	if mu.Results[0].Error == "" || mu.Results[1].Error == "" || mu.Results[2].Error == "" || mu.Results[3].Error != "" {
		t.Fatalf("mixed batch results %+v", mu.Results)
	}
	if mu.Applied != 1 || mu.Results[3].ID != 5 {
		t.Fatalf("mixed batch accounting %+v", mu)
	}
	// The empty-tuple op must not have touched its target.
	post(t, ts.URL+"/topk", q, &top)
	if !reflect.DeepEqual(top, an.Result) {
		t.Fatalf("empty-tuple op destroyed tuple 0: %v vs %v", top, an.Result)
	}

	// Malformed shapes are 400s.
	if resp := post(t, ts.URL+"/update", UpdateRequest{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty update batch status %d", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/delete", DeleteRequest{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty delete batch status %d", resp.StatusCode)
	}

	// /stats carries the mutation counters.
	r, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Mutations == nil {
		t.Fatal("stats missing mutations block")
	}
	if st.Mutations.Inserts != 2 || st.Mutations.Updates != 1 || st.Mutations.Deletes != 1 {
		t.Fatalf("mutation counters %+v", st.Mutations)
	}
	if st.Mutations.CacheSurvived < 1 || st.Mutations.CacheEvicted < 1 {
		t.Fatalf("invalidation counters %+v", st.Mutations)
	}
}

// TestUpdateReadOnly: a read-only server answers the write endpoints
// with 409 and keeps serving queries.
func TestUpdateReadOnly(t *testing.T) {
	tuples, _, _ := fixture.RunningExample()
	srv := FromEngine(engine.New(lists.NewMemIndex(tuples, 2), engine.Config{ReadOnly: true}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := post(t, ts.URL+"/update", UpdateRequest{Ops: []UpdateOpJSON{
		{Tuple: []vec.Entry{{Dim: 0, Val: 0.5}}},
	}}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("read-only update status %d, want 409", resp.StatusCode)
	}
	resp = post(t, ts.URL+"/delete", DeleteRequest{IDs: []int{0}}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("read-only delete status %d, want 409", resp.StatusCode)
	}
	// Even a batch whose ops all fail shape parsing reports read-only:
	// the status code must not depend on payload shape.
	resp = post(t, ts.URL+"/update", UpdateRequest{Ops: []UpdateOpJSON{
		{Tuple: []vec.Entry{{Dim: 0, Val: 0.5}, {Dim: 0, Val: 0.6}}},
	}}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("read-only shape-failed update status %d, want 409", resp.StatusCode)
	}
	var got []ResultEntry
	resp = post(t, ts.URL+"/topk", QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}, K: 2}, &got)
	if resp.StatusCode != http.StatusOK || len(got) != 2 {
		t.Fatalf("read-only query status %d result %v", resp.StatusCode, got)
	}
}
