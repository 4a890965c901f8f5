package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/smoke.golden.json from this tree's output")

// TestParsePinsSchema: a recorded `go test -bench` run of two packages,
// with -benchmem and custom metrics, parses to exactly the committed
// record — names without their -GOMAXPROCS suffix, each benchmark's
// runs counted and every unit summarised by its median, min and max.
func TestParsePinsSchema(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "smoke.txt"))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := parse(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "smoke.golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("parse drifted from %s:\ngot:\n%s\nwant:\n%s", golden, got, want)
	}

	cpt := rep.Benchmarks[0]
	if rep.GOMAXPROCS != 2 || cpt.Name != "BenchmarkFig/fig10/CPT" || cpt.Runs != 3 ||
		cpt.Metrics["ns/op"] != (Stat{Median: 355282, Min: 343980, Max: 359107}) {
		t.Fatalf("first benchmark: GOMAXPROCS %d, %+v", rep.GOMAXPROCS, cpt)
	}
}

// TestParseSkipsLogsAndRefusesMixedProcs: a benchmark's name on a line
// of its own and its log lines are no results; runs at two GOMAXPROCS
// values cannot share one record.
func TestParseSkipsLogsAndRefusesMixedProcs(t *testing.T) {
	rep, err := parse(strings.NewReader("pkg: p\nBenchmarkA\n    a_test.go:9: 3 ns/op here\nBenchmarkA 	 10	 4 ns/op\nBenchmarkA 	 10	 6 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.GOMAXPROCS != 1 || rep.Benchmarks[0].Runs != 2 ||
		rep.Benchmarks[0].Metrics["ns/op"] != (Stat{Median: 5, Min: 4, Max: 6}) {
		t.Fatalf("parsed %+v", rep)
	}
	if _, err := parse(strings.NewReader("BenchmarkA-2 	 10	 4 ns/op\nBenchmarkB-4 	 10	 4 ns/op\n")); err == nil {
		t.Fatal("runs at GOMAXPROCS 2 and 4 parsed into one record")
	}
}
