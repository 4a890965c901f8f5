package server

import (
	"encoding/json"
	"maps"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/topk"
)

// driftCounters reads every counter a query moves, from both surfaces:
// the engine and HTTP families of /metrics (by series) and the cache
// block of /stats (as "stats.cache.<field>").
func driftCounters(t *testing.T, url string) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	for _, line := range strings.Split(scrape(t, url+"/metrics"), "\n") {
		series, val, _ := strings.Cut(line, " ")
		switch name, _, _ := strings.Cut(series, "{"); name {
		case "ir_engine_queries_total", "ir_engine_cache_events_total",
			"ir_engine_ta_sorted_accesses_count", "ir_http_cache_disposition_total",
			"ir_http_validation_failures_total":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("metrics line %q: %v", line, err)
			}
			out[series] = int64(f)
		}
	}
	var st struct {
		Cache map[string]int64 `json:"cache"`
	}
	if err := json.Unmarshal([]byte(scrape(t, url+"/stats")), &st); err != nil {
		t.Fatal(err)
	}
	for k, v := range st.Cache {
		out["stats.cache."+k] = v
	}
	// What an entry weighs is the answer's business, not the counters'.
	delete(out, "stats.cache.bytes")
	return out
}

// TestBatchItemsCountLikeSingles: a query moves the same counters, on
// /metrics and on /stats, whether it arrives alone or as one item of a
// batch — over a subspace of its own or one its neighbours share (which
// /batchtopk fuses into one scan). The one sanctioned difference is an
// item repeated inside a batch, which is answered as "dedup" without a
// cache probe or a computation of its own. A query the validation gate
// turns away counts as a validation failure either way: a 400 alone, an
// error in place inside a batch that still answers 200.
func TestBatchItemsCountLikeSingles(t *testing.T) {
	distinct := []any{
		QueryRequest{Dims: []int{0}, Weights: []float64{0.8}, K: 2, Phi: 1},
		QueryRequest{Dims: []int{1}, Weights: []float64{0.5}, K: 2, Phi: 1},
		QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.6, 0.6}, K: 2, Phi: 1, NoCache: true},
	}
	fused := []any{
		QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}, K: 2, Phi: 1},
		QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.3, 0.9}, K: 2, Phi: 1},
		QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.6, 0.6}, K: 2, Phi: 1, NoCache: true},
	}
	analyze := map[string]int64{
		`ir_engine_queries_total{kind="analyze"}`:               3,
		`ir_engine_cache_events_total{event="miss"}`:            2,
		`ir_engine_cache_events_total{event="bypass"}`:          1,
		`ir_engine_ta_sorted_accesses_count`:                    3,
		`ir_http_cache_disposition_total{disposition="miss"}`:   2,
		`ir_http_cache_disposition_total{disposition="bypass"}`: 1,
		"stats.cache.misses":                                    2,
		"stats.cache.bypasses":                                  1,
		"stats.cache.entries":                                   2,
	}
	analyzeDup := maps.Clone(analyze)
	analyzeDup[`ir_engine_queries_total{kind="analyze"}`] = 4
	analyzeDup[`ir_http_cache_disposition_total{disposition="dedup"}`] = 1
	// Ranked queries admit nothing and know no no_cache: three misses.
	ranked := map[string]int64{
		`ir_engine_queries_total{kind="topk"}`:                3,
		`ir_engine_cache_events_total{event="miss"}`:          3,
		`ir_engine_ta_sorted_accesses_count`:                  3,
		`ir_http_cache_disposition_total{disposition="miss"}`: 3,
		"stats.cache.misses":                                  3,
	}
	// One per shape of refusal: the query constructor and the method
	// parser, which turn a query away before the engine sees it, and the
	// engine's gate on k and on φ, which counts the query first. /topk
	// reads neither method nor φ. /shard/analyze also refuses, after its
	// gate, an imposed result it cannot take for R: a projection of the
	// wrong length (it used to panic in Phase 2), an id twice, a score
	// order that is not ranked.
	const failures = "ir_http_validation_failures_total"
	invalid := []any{
		QueryRequest{Dims: []int{0, 0}, Weights: []float64{0.8, 0.5}, K: 2},
		QueryRequest{Dims: []int{0}, Weights: []float64{0.8}, K: 0},
		QueryRequest{Dims: []int{0}, Weights: []float64{0.8}, K: 2, Phi: -1},
		QueryRequest{Dims: []int{0}, Weights: []float64{0.8}, K: 2, Method: "nope"},
	}
	imposed := func(r ...topk.Scored) any {
		return ShardAnalyzeRequest{Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}, K: 2, Imposed: r}
	}
	a, b := topk.Scored{ID: 0, Score: 1, Proj: []float64{1, 0.4}}, topk.Scored{ID: 1, Score: 0.5, Proj: []float64{0, 1}}
	invalidImposed := append(invalid[:4:4],
		imposed(topk.Scored{ID: 0, Score: 1, Proj: []float64{}}),
		imposed(a, topk.Scored{ID: 0, Score: 0.5, Proj: b.Proj}),
		imposed(b, a))
	analyzeInvalid := map[string]int64{failures: 4, `ir_engine_queries_total{kind="analyze"}`: 2}
	topkInvalid := map[string]int64{failures: 2, `ir_engine_queries_total{kind="topk"}`: 1}
	imposedInvalid := map[string]int64{failures: 7, `ir_engine_queries_total{kind="analyze-imposed"}`: 5}
	for _, tc := range []struct {
		name     string
		endpoint string // the single-query route; the batch route is "/batch"+endpoint
		queries  []any
		batch    bool
		want     map[string]int64
	}{
		{"analyze singles, invalid", "analyze", invalid, false, analyzeInvalid},
		{"analyze batch, invalid", "analyze", invalid, true, analyzeInvalid},
		{"topk singles, invalid", "topk", invalid[:2], false, topkInvalid},
		{"topk batch, invalid", "topk", invalid[:2], true, topkInvalid},
		{"shard/analyze, invalid", "shard/analyze", invalidImposed, false, imposedInvalid},
		{"analyze singles, distinct subspaces", "analyze", distinct, false, analyze},
		{"analyze batch, distinct subspaces", "analyze", distinct, true, analyze},
		{"analyze singles, one subspace", "analyze", fused, false, analyze},
		{"analyze batch, fused", "analyze", fused, true, analyze},
		{"analyze batch, fused, one item twice", "analyze", append(fused[:3:3], fused[0]), true, analyzeDup},
		{"topk singles, distinct subspaces", "topk", distinct, false, ranked},
		{"topk batch, distinct subspaces", "topk", distinct, true, ranked},
		{"topk singles, one subspace", "topk", fused, false, ranked},
		{"topk batch, fused", "topk", fused, true, ranked},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := testServer(t)
			before := driftCounters(t, ts.URL)
			if tc.batch {
				resp := post(t, ts.URL+"/batch"+tc.endpoint, map[string]any{"queries": tc.queries}, nil)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("batch status %d", resp.StatusCode)
				}
			} else {
				status := http.StatusOK
				if tc.want[failures] > 0 {
					status = http.StatusBadRequest
				}
				for _, q := range tc.queries {
					if resp := post(t, ts.URL+"/"+tc.endpoint, q, nil); resp.StatusCode != status {
						t.Fatalf("status %d, want %d", resp.StatusCode, status)
					}
				}
			}
			got := driftCounters(t, ts.URL)
			for k, v := range before {
				if got[k] -= v; got[k] == 0 {
					delete(got, k)
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("counter deltas\n got: %v\nwant: %v", got, tc.want)
			}
		})
	}
}
