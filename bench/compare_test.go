package main

import (
	"strings"
	"testing"
)

func repeat(vals ...float64) []float64 { return vals }

func TestJudgeVerdicts(t *testing.T) {
	steadyA := repeat(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, tc := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		bound       float64
		want        verdict
	}{
		{"same code", steadyA, repeat(101, 100, 100, 99, 101, 99, 101, 100, 100, 99), true, 0.10, unchanged},
		{"latency up 20%", steadyA, repeat(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), true, 0.10, worse},
		{"latency up 5% stays inside the bound", steadyA, repeat(105, 106, 104, 105, 107, 103, 105, 106, 104, 105), true, 0.10, unchanged},
		{"throughput down 20%", steadyA, repeat(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), false, 0.10, worse},
		{"throughput up is not worse", steadyA, repeat(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), false, 0.10, improved},
		{"latency down 20%, ten pairs all won", steadyA, repeat(80, 81, 79, 80, 82, 78, 80, 81, 79, 80), true, 0.10, improved},
		{"gain smaller than the parent's own spread", steadyA, repeat(99.5, 100.5, 98.5, 99.5, 101.5, 97.5, 99.5, 100.5, 98.5, 99.5), true, 0.10, unchanged},
		{"gain on three pairs only cannot be claimed", repeat(100, 101, 99), repeat(80, 81, 79), true, 0.10, unchanged},
		{"wins only 8 of 10 pairs", steadyA, repeat(80, 81, 79, 80, 82, 78, 80, 81, 120, 120), true, 0.25, unchanged},
		{"spread wider than the bound", repeat(100, 140, 70, 100, 130, 60, 100, 150, 80, 100), repeat(100, 101, 99, 100, 102, 98, 100, 101, 99, 100), true, 0.10, unresolved},
	} {
		if got := judge(tc.a, tc.b, tc.lowerBetter, tc.bound).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// syntheticRun is a traced run file with one workload, one end-to-end
// metric and every exact counter set to evaluated.
func syntheticRun(seed int64, latency, evaluated float64, failed int) runFile {
	perLayer := map[string]metric{}
	for _, c := range exactCounters {
		perLayer[c] = metric{Value: evaluated, Unit: "count"}
	}
	return runFile{Seed: seed, Seconds: 15, Host: map[string]string{"nproc": "2", "commit": "abc"}, Workloads: []workloadResult{{
		Workload:  "cold-analyze",
		Attempted: 1000,
		Failed:    failed,
		EndToEnd:  map[string]metric{"op_p50_ms": {Value: latency, Unit: "ms"}},
		PerLayer:  perLayer,
	}}}
}

func TestCompareSetsGate(t *testing.T) {
	var doc benchmarkDoc
	doc.EndToEnd = append(doc.EndToEnd, struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{"op_p50_ms", "lower", 0.10})
	flagged := func(problems []string, what string) bool {
		return len(problems) == 1 && strings.Contains(problems[0], what)
	}

	a := []runFile{syntheticRun(1, 2.50, 330, 0), syntheticRun(1, 2.52, 330, 0), syntheticRun(1, 2.48, 330, 0)}

	same := []runFile{syntheticRun(1, 2.51, 330, 0), syntheticRun(1, 2.49, 330, 0), syntheticRun(1, 2.50, 330, 0)}
	rows, problems := compareSets(a, same, doc)
	if len(rows) != 1 || rows[0].verdict != unchanged || len(problems) != 0 {
		t.Errorf("same code: rows %+v, problems %v", rows, problems)
	}

	slow := []runFile{syntheticRun(1, 3.1, 330, 0), syntheticRun(1, 3.0, 330, 0), syntheticRun(1, 3.2, 330, 0)}
	if _, problems = compareSets(a, slow, doc); !flagged(problems, "worse") {
		t.Errorf("regression not flagged: %v", problems)
	}

	// Runs too far apart to tell fail the gate; they do not pass it.
	noisy := []runFile{syntheticRun(1, 2.2, 330, 0), syntheticRun(1, 2.5, 330, 0), syntheticRun(1, 2.9, 330, 0)}
	if _, problems = compareSets(a, noisy, doc); !flagged(problems, "unresolved") {
		t.Errorf("unresolved row not flagged: %v", problems)
	}

	// Equal times, but the exact counters moved: the work changed.
	moved := []runFile{syntheticRun(1, 2.50, 331, 0), syntheticRun(1, 2.52, 331, 0), syntheticRun(1, 2.48, 331, 0)}
	if _, problems = compareSets(a, moved, doc); len(problems) != len(exactCounters) || !strings.Contains(problems[0], "exact counter") {
		t.Errorf("moved exact counters not flagged: %v", problems)
	}
	// Another seed may count differently, as long as each seed agrees with itself.
	two := func(lat float64) []runFile {
		return []runFile{syntheticRun(1, lat, 330, 0), syntheticRun(2, lat, 347, 0), syntheticRun(1, lat+0.01, 330, 0)}
	}
	if _, problems = compareSets(two(2.50), two(2.51), doc); len(problems) != 0 {
		t.Errorf("counters of different seeds compared: %v", problems)
	}
	// Without a traced run there is no counter to check, which is not a pass.
	untraced := []runFile{syntheticRun(1, 2.51, 330, 0), syntheticRun(1, 2.49, 330, 0), syntheticRun(1, 2.50, 330, 0)}
	untraced[1].Workloads[0].PerLayer = nil
	if _, problems = compareSets(a, untraced, doc); !flagged(problems, "not traced") {
		t.Errorf("untraced run not flagged: %v", problems)
	}

	failing := []runFile{syntheticRun(1, 2.50, 330, 3), syntheticRun(1, 2.52, 330, 0), syntheticRun(1, 2.48, 330, 0)}
	if _, problems = compareSets(a, failing, doc); !flagged(problems, "failed_share") {
		t.Errorf("risen failures not flagged: %v", problems)
	}
}

// TestDiagnosticRowsAreNotEnforced: a demoted timing metric that got
// worse is shown as worse and does not fail the gate.
func TestDiagnosticRowsAreNotEnforced(t *testing.T) {
	var doc benchmarkDoc // no gated metric at all
	set := func(p50 float64) []runFile {
		runs := []runFile{syntheticRun(1, 2.5, 330, 0), syntheticRun(1, 2.5, 330, 0), syntheticRun(1, 2.5, 330, 0)}
		for i := range runs {
			runs[i].Workloads[0].PerLayer["bench.op_p50_ms"] = metric{Value: p50 + 0.01*float64(i), Unit: "ms"}
		}
		return runs
	}
	rows, problems := compareSets(set(2.5), set(3.5), doc)
	if len(problems) != 0 {
		t.Errorf("a diagnostic row failed the gate: %v", problems)
	}
	if len(rows) != 1 || rows[0].metric != "bench.op_p50_ms" || rows[0].verdict != worse || rows[0].gated {
		t.Errorf("rows %+v, want one ungated bench.op_p50_ms row judged worse", rows)
	}
}

func TestComparable(t *testing.T) {
	a := []runFile{syntheticRun(1, 2.5, 330, 0), syntheticRun(1, 2.5, 330, 0)}
	other := syntheticRun(1, 2.5, 330, 0)
	other.Host["commit"] = "def-dirty"
	if err := comparable(a, []runFile{other}); err != nil {
		t.Errorf("sets that differ in commit only: %v", err)
	}
	short := syntheticRun(1, 2.5, 330, 0)
	short.Seconds = 5
	bigger := syntheticRun(1, 2.5, 330, 0)
	bigger.Host["nproc"] = "16"
	for what, b := range map[string]runFile{"seconds": short, "nproc": bigger, "seeds": syntheticRun(2, 2.5, 330, 0)} {
		if err := comparable(a, []runFile{b}); err == nil || !strings.Contains(err.Error(), what) {
			t.Errorf("sets that differ in %s: %v", what, err)
		}
	}
}
