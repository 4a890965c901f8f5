package server

import (
	"bufio"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	// Registers the client/proxy metric families so the golden
	// metric-name snapshot covers every layer linked into a deployment.
	_ "repro/internal/client"
	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/obs"
	"repro/internal/vec"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// scrape fetches url and returns the body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	return sb.String()
}

// lintMetrics scrapes /metrics and fails on any exposition-format
// violation (missing HELP/TYPE, bad names, non-cumulative buckets,
// duplicate series).
func lintMetrics(t *testing.T, baseURL string) string {
	t.Helper()
	body := scrape(t, baseURL+"/metrics")
	if problems := obs.LintExposition(strings.NewReader(body)); len(problems) != 0 {
		t.Fatalf("exposition not conformant:\n  %s", strings.Join(problems, "\n  "))
	}
	return body
}

// TestMetricsConformance drives traffic through every endpoint kind and
// then checks the exposition is format-clean and carries the expected
// per-endpoint series.
func TestMetricsConformance(t *testing.T) {
	ts := testServer(t)
	post(t, ts.URL+"/topk", QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}, K: 2}, nil)
	post(t, ts.URL+"/analyze", QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}, K: 2, Phi: 1}, nil)
	// One validation failure, for the failure counter.
	post(t, ts.URL+"/topk", QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}, K: 0}, nil)
	if _, err := http.Get(ts.URL + "/stats"); err != nil {
		t.Fatal(err)
	}

	body := lintMetrics(t, ts.URL)
	for _, want := range []string{
		`ir_http_requests_total{endpoint="topk"}`,
		`ir_http_requests_total{endpoint="analyze"}`,
		`ir_http_request_seconds_bucket{endpoint="topk",le="+Inf"}`,
		"ir_http_validation_failures_total",
		`ir_engine_queries_total{kind="topk"}`,
		`ir_http_cache_disposition_total{disposition=`,
		"ir_build_info{",
		"ir_io_seq_pages",
		"ir_cache_entries",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition is missing %q", want)
		}
	}
}

// TestMetricsConformanceStandby covers the other server postures: a
// write-gated standby and a mid-re-seed server with no engine at all.
func TestMetricsConformanceStandby(t *testing.T) {
	tuples, _, _ := fixture.RunningExample()
	eng := engine.New(lists.NewMemIndex(tuples, 2), engine.Config{})
	srv := New(Config{
		Querier:   func() Querier { return eng },
		WriteGate: func() (bool, string) { return false, "http://primary.example:8080" },
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post(t, ts.URL+"/update", UpdateRequest{Ops: []UpdateOpJSON{{Tuple: []vec.Entry{{Dim: 0, Val: 0.5}}}}}, nil)
	lintMetrics(t, ts.URL)

	nilSrv := New(Config{Querier: func() Querier { return (*engine.Engine)(nil) }})
	ns := httptest.NewServer(nilSrv.Handler())
	defer ns.Close()
	post(t, ns.URL+"/topk", QueryRequest{Dims: []int{0}, Weights: []float64{1}, K: 1}, nil)
	lintMetrics(t, ns.URL)
}

// TestMetricsGoldenNames pins the full registered metric-name set.
// A new metric (or a renamed one) must update the snapshot — and the
// docs/observability.md catalogue, which cmd/docscheck cross-checks.
func TestMetricsGoldenNames(t *testing.T) {
	names := obs.Default.Names()
	got := strings.Join(names, "\n") + "\n"
	golden := filepath.Join("testdata", "metric_names.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run go test ./internal/server -run GoldenNames -update-golden)", err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("registered metric names drifted from testdata/metric_names.golden:\ngot:\n%s\nwant:\n%s\n(run go test ./internal/server -run GoldenNames -update-golden and update docs/observability.md)",
			strings.Join(names, "\n"), strings.Join(want, "\n"))
	}
}

// TestRequestIDEchoAndAdopt: every response carries an X-Request-ID;
// a valid inbound ID is adopted verbatim, garbage is replaced.
func TestRequestIDEchoAndAdopt(t *testing.T) {
	ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get(obs.RequestIDHeader); len(id) != 16 {
		t.Fatalf("minted ID %q, want 16 hex chars", id)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/stats", nil)
	req.Header.Set(obs.RequestIDHeader, "trace-me-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if id := resp.Header.Get(obs.RequestIDHeader); id != "trace-me-42" {
		t.Fatalf("inbound ID not adopted: got %q", id)
	}
}

// TestSlowlogEndpoint: with a 1ns threshold every query is slow; the
// ring must retain the request ID, the per-phase breakdown and the I/O
// counts, newest first.
func TestSlowlogEndpoint(t *testing.T) {
	tuples, _, _ := fixture.RunningExample()
	eng := engine.New(lists.NewMemIndex(tuples, 2), engine.Config{})
	srv := New(Config{Querier: func() Querier { return eng }, SlowQuery: time.Nanosecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/topk",
		strings.NewReader(`{"dims":[0,1],"weights":[0.8,0.5],"k":2}`))
	req.Header.Set(obs.RequestIDHeader, "slow-topk-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	post(t, ts.URL+"/analyze", QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}, K: 2, Phi: 1, NoCache: true}, nil)

	var sl SlowlogResponse
	sresp, err := http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&sl); err != nil {
		t.Fatal(err)
	}
	if sl.Recorded != 2 || len(sl.Entries) != 2 {
		t.Fatalf("recorded=%d entries=%d, want 2/2", sl.Recorded, len(sl.Entries))
	}
	// Newest first: the analyze, then the topk.
	an, tk := sl.Entries[0], sl.Entries[1]
	if an.Endpoint != "analyze" || tk.Endpoint != "topk" {
		t.Fatalf("order: got %s,%s want analyze,topk", an.Endpoint, tk.Endpoint)
	}
	if tk.RequestID != "slow-topk-1" {
		t.Fatalf("topk entry request id %q", tk.RequestID)
	}
	if tk.K != 2 || len(tk.Dims) != 2 {
		t.Fatalf("topk entry k=%d dims=%v", tk.K, tk.Dims)
	}
	if an.Cache != "bypass" {
		t.Fatalf("analyze disposition %q, want bypass", an.Cache)
	}
	if an.DurationMs <= 0 {
		t.Fatalf("analyze duration %v", an.DurationMs)
	}
	if an.PhaseMs.Scan < 0 || an.PhaseMs.Region < 0 {
		t.Fatalf("negative phases: %+v", an.PhaseMs)
	}
}

// TestSlowlogDisabled: a zero threshold records nothing.
func TestSlowlogDisabled(t *testing.T) {
	tuples, _, _ := fixture.RunningExample()
	eng := engine.New(lists.NewMemIndex(tuples, 2), engine.Config{})
	srv := New(Config{Querier: func() Querier { return eng }, SlowQuery: 0})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	post(t, ts.URL+"/topk", QueryRequest{Dims: []int{0, 1}, Weights: []float64{0.8, 0.5}, K: 2}, nil)
	var sl SlowlogResponse
	resp, err := http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&sl); err != nil {
		t.Fatal(err)
	}
	if sl.ThresholdMs != 0 || sl.Recorded != 0 || len(sl.Entries) != 0 {
		t.Fatalf("disabled slowlog recorded: %+v", sl)
	}
}

// TestStatsBuildBlock: /stats carries the binary identity.
func TestStatsBuildBlock(t *testing.T) {
	ts := testServer(t)
	var stats StatsResponse
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Build.Version == "" || stats.Build.Commit == "" {
		t.Fatalf("empty build identity: %+v", stats.Build)
	}
	if stats.Build.StartTimeUnix <= 0 || stats.Build.UptimeSeconds < 0 {
		t.Fatalf("implausible build clock: %+v", stats.Build)
	}
}
