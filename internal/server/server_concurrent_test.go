package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/lists"
)

// analyzeOnce posts one /analyze request and decodes the response with
// the wall-clock metric zeroed (everything else must be deterministic).
// It returns an error instead of failing the test so worker goroutines
// can call it (t.Fatal is only legal on the test goroutine).
func analyzeOnce(url string, req QueryRequest) (AnalyzeResponse, error) {
	var out AnalyzeResponse
	raw, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	resp, err := http.Post(url+"/analyze", "application/json", bytes.NewReader(raw))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, err
	}
	out.Metrics.CPUMicros = 0
	return out, nil
}

// TestConcurrentAnalyzeMatchesSequential fires many /analyze requests in
// parallel against one server and requires every response — results,
// regions, and the per-query I/O metering — to be identical to the
// answer the same query gets when it runs alone. This is the end-to-end
// check that dropping the server-wide mutex did not let queries bleed
// state (cursors, candidate lists, meters) into each other.
func TestConcurrentAnalyzeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	cs := fixture.RandCase(rng, 300, 8, 3, 5)
	ix := lists.NewMemIndex(cs.Tuples, cs.M)
	// Cache off: this test compares repeat responses (metrics included)
	// against their solo execution, which a cache hit's zero-work
	// metering would legitimately break.
	srv := FromEngine(engine.New(ix, engine.Config{MaxConcurrent: 4, CacheEntries: -1}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A mixed workload: different subspaces, methods, and φ.
	var reqs []QueryRequest
	methods := []string{"scan", "prune", "thres", "cpt"}
	for i := 0; i < 12; i++ {
		q := cs.Q
		reqs = append(reqs, QueryRequest{
			Dims:    q.Dims,
			Weights: q.Weights,
			K:       1 + i%5,
			Phi:     i % 3,
			Method:  methods[i%len(methods)],
		})
	}

	// Sequential ground truth, one request at a time.
	want := make([]AnalyzeResponse, len(reqs))
	for i, req := range reqs {
		var err error
		if want[i], err = analyzeOnce(ts.URL, req); err != nil {
			t.Fatal(err)
		}
	}

	// The same workload, every request repeated from several goroutines
	// at once.
	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds*len(reqs))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range reqs {
					// Stagger the order per goroutine to mix in-flight queries.
					idx := (i + g + r) % len(reqs)
					got, err := analyzeOnce(ts.URL, reqs[idx])
					if err != nil {
						errs <- err
						return
					}
					if !reflect.DeepEqual(got, want[idx]) {
						errs <- fmt.Errorf("request %d diverged from sequential execution", idx)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The shared meter aggregated every query's charges.
	seq, rnd, _ := ix.Stats().Snapshot()
	if seq == 0 || rnd == 0 {
		t.Fatalf("shared stats not aggregated: seq=%d rand=%d", seq, rnd)
	}
}

// TestConcurrentTopK hammers /topk from many goroutines; every response
// must equal the sequential answer.
func TestConcurrentTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	cs := fixture.RandCase(rng, 200, 6, 3, 10)
	ix := lists.NewMemIndex(cs.Tuples, cs.M)
	srv := FromEngine(engine.New(ix, engine.Config{MaxConcurrent: 3, CacheEntries: -1}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := QueryRequest{Dims: cs.Q.Dims, Weights: cs.Q.Weights, K: 10}
	raw, _ := json.Marshal(req)
	fetch := func() []ResultEntry {
		resp, err := http.Post(ts.URL+"/topk", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Error(err)
			return nil
		}
		defer resp.Body.Close()
		var out []ResultEntry
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Error(err)
			return nil
		}
		return out
	}
	want := fetch()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 5; r++ {
				if got := fetch(); !reflect.DeepEqual(got, want) {
					t.Errorf("concurrent /topk diverged: %v vs %v", got, want)
				}
			}
		}()
	}
	wg.Wait()
}
