package topk

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fixture"
	"repro/internal/lists"
)

// mustRun runs a scan to termination, failing the test if it fails.
func mustRun(t testing.TB, r interface{ RunContext(context.Context) error }) {
	t.Helper()
	if err := r.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRunningExampleTrace reproduces the TA execution of Fig. 2: three
// sorted accesses (d1 on L1, d3 on L2, d2 on L1), result [d2, d1],
// candidates [d3], final threshold 0.38.
func TestRunningExampleTrace(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	ix := lists.NewMemIndex(tuples, 2)
	ta := New(ix, q, k, RoundRobin)
	mustRun(t, ta)

	if got := ta.SortedAccesses(); got != 3 {
		t.Errorf("sorted accesses = %d, want 3", got)
	}
	res := ta.Result()
	if len(res) != 2 || res[0].ID != 1 || res[1].ID != 0 {
		t.Fatalf("result = %+v, want [d2 d1]", res)
	}
	if math.Abs(res[0].Score-0.81) > 1e-12 || math.Abs(res[1].Score-0.8) > 1e-12 {
		t.Errorf("scores = %v, %v; want 0.81, 0.8", res[0].Score, res[1].Score)
	}
	cands := ta.Candidates()
	if len(cands) != 1 || cands[0].ID != 2 {
		t.Fatalf("candidates = %+v, want [d3]", cands)
	}
	if math.Abs(cands[0].Score-0.48) > 1e-12 {
		t.Errorf("candidate score = %v, want 0.48", cands[0].Score)
	}
	if got := ta.ThresholdScore(); math.Abs(got-0.38) > 1e-12 {
		t.Errorf("threshold = %v, want 0.38", got)
	}
	th := ta.Thresholds()
	if math.Abs(th[0]-0.1) > 1e-12 || math.Abs(th[1]-0.6) > 1e-12 {
		t.Errorf("thresholds = %v, want [0.1 0.6]", th)
	}
}

// TestTAMatchesNaive cross-checks TA against exhaustive scoring for both
// probing policies across random scenarios.
func TestTAMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 60; trial++ {
		cs := fixture.RandCase(rng, 20+rng.Intn(100), 3+rng.Intn(8), 2+rng.Intn(3), 1+rng.Intn(10))
		want := TopKNaive(cs.Tuples, cs.Q, cs.K)
		for _, policy := range []ProbePolicy{RoundRobin, BestList} {
			ix := lists.NewMemIndex(cs.Tuples, cs.M)
			ta := New(ix, cs.Q, cs.K, policy)
			mustRun(t, ta)
			got := ta.Result()
			if len(got) != len(want) {
				t.Fatalf("trial %d %v: %d results, want %d", trial, policy, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID {
					t.Fatalf("trial %d %v rank %d: id %d, want %d", trial, policy, i, got[i].ID, want[i].ID)
				}
				if math.Abs(got[i].Score-want[i].Score) > 1e-12 {
					t.Fatalf("trial %d %v rank %d: score %v, want %v", trial, policy, i, got[i].Score, want[i].Score)
				}
			}
		}
	}
}

// TestCandidatesSortedAndBelowResult: C(q) must be in decreasing score
// order and entirely below the k-th result score.
func TestCandidatesSortedAndBelowResult(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 30; trial++ {
		cs := fixture.RandCase(rng, 80, 6, 3, 5)
		ix := lists.NewMemIndex(cs.Tuples, cs.M)
		ta := New(ix, cs.Q, cs.K, BestList)
		mustRun(t, ta)
		kth := ta.Result()[len(ta.Result())-1].Score
		prev := math.Inf(1)
		for _, c := range ta.Candidates() {
			if c.Score > kth {
				t.Fatalf("trial %d: candidate %d above k-th score", trial, c.ID)
			}
			if c.Score > prev {
				t.Fatalf("trial %d: candidates not sorted", trial)
			}
			prev = c.Score
		}
	}
}

// TestResumeEnumeratesRemaining: resuming after termination must surface
// every remaining list-reachable tuple exactly once.
func TestResumeEnumeratesRemaining(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	cs := fixture.RandCase(rng, 60, 5, 3, 4)
	ix := lists.NewMemIndex(cs.Tuples, cs.M)
	ta := New(ix, cs.Q, cs.K, RoundRobin)
	mustRun(t, ta)

	seen := map[int]bool{}
	for _, r := range ta.Result() {
		seen[r.ID] = true
	}
	for _, c := range ta.Candidates() {
		if seen[c.ID] {
			t.Fatalf("duplicate %d between result and candidates", c.ID)
		}
		seen[c.ID] = true
	}
	for {
		p, ok := ta.Resume()
		if !ok {
			break
		}
		id := ta.Table().ID(p)
		if seen[id] {
			t.Fatalf("Resume returned duplicate %d", id)
		}
		seen[id] = true
	}
	if len(seen) != len(cs.Tuples) {
		t.Fatalf("saw %d tuples, want %d", len(seen), len(cs.Tuples))
	}
	if len(ta.Candidates()) != len(cs.Tuples)-cs.K {
		t.Fatalf("candidate list has %d entries, want %d", len(ta.Candidates()), len(cs.Tuples)-cs.K)
	}
}

// TestWasSortedAccessed validates the Phase-3 shortcut test against an
// independent reconstruction of the consumed prefixes.
func TestWasSortedAccessed(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 20; trial++ {
		cs := fixture.RandCase(rng, 50, 5, 3, 3)
		ix := lists.NewMemIndex(cs.Tuples, cs.M)
		ta := New(ix, cs.Q, cs.K, BestList)
		mustRun(t, ta)
		for i, dim := range cs.Q.Dims {
			consumed := ta.consumed[i]
			postings := lists.BuildPostings(cs.Tuples)[dim]
			inPrefix := map[int]bool{}
			for _, p := range postings[:consumed] {
				inPrefix[p.ID] = true
			}
			for id, tp := range cs.Tuples {
				val := tp.Get(dim)
				if got := ta.WasSortedAccessed(i, id, val); got != inPrefix[id] {
					t.Fatalf("trial %d dim %d tuple %d (val %v): WasSortedAccessed=%v, prefix says %v",
						trial, dim, id, val, got, inPrefix[id])
				}
			}
		}
	}
}

func TestNewPanics(t *testing.T) {
	tuples, q, _ := fixture.RunningExample()
	ix := lists.NewMemIndex(tuples, 2)
	assertPanic(t, "k=0", func() { New(ix, q, 0, RoundRobin) })
	ta := New(ix, q, 1, RoundRobin)
	assertPanic(t, "Result before Run", func() { ta.Result() })
	assertPanic(t, "Resume before Run", func() { ta.Resume() })
}

func assertPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", name)
		}
	}()
	f()
}

func TestPolicyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || BestList.String() != "best-list" {
		t.Fatal("policy names wrong")
	}
}

// TestTraceMatchesFig2 pins the full execution trace of the running
// example against the paper's Fig. 2 table: thresholds 0.96, 0.86, 0.38
// and the evolving R(q)/C(q) snapshots.
func TestTraceMatchesFig2(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	ix := lists.NewMemIndex(tuples, 2)
	ta := New(ix, q, k, RoundRobin)
	var steps []TraceStep
	ta.SetTrace(func(ts TraceStep) { steps = append(steps, ts) })
	mustRun(t, ta)

	if len(steps) != 3 {
		t.Fatalf("%d trace steps, want 3", len(steps))
	}
	wantThresh := []float64{0.96, 0.86, 0.38}
	wantTuple := []int{0, 2, 1}
	wantScore := []float64{0.8, 0.48, 0.81}
	for i, ts := range steps {
		if ts.Tuple != wantTuple[i] {
			t.Errorf("step %d: tuple %d, want %d", i+1, ts.Tuple, wantTuple[i])
		}
		if math.Abs(ts.Score-wantScore[i]) > 1e-12 {
			t.Errorf("step %d: score %v, want %v", i+1, ts.Score, wantScore[i])
		}
		if math.Abs(ts.ThresholdScore-wantThresh[i]) > 1e-12 {
			t.Errorf("step %d: threshold %v, want %v", i+1, ts.ThresholdScore, wantThresh[i])
		}
	}
	// Fig. 2 snapshots: after step 2, R=[d1,d3]; after step 3, R=[d2,d1],
	// C=[d3].
	if got := steps[1].ResultIDs; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("step 2 R(q) = %v, want [0 2]", got)
	}
	if got := steps[2].ResultIDs; len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Errorf("step 3 R(q) = %v, want [1 0]", got)
	}
	if got := steps[2].CandidateIDs; len(got) != 1 || got[0] != 2 {
		t.Errorf("step 3 C(q) = %v, want [2]", got)
	}
}
