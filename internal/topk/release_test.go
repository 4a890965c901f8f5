package topk

import (
	"context"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/vec"
)

// TestMain runs the whole package with scratch poisoning on: every span
// handed back to the arena is overwritten with NaN/-1, so a test that
// reads a released run's memory — or a run that trusts what a span held
// before — fails instead of passing by luck.
func TestMain(m *testing.M) {
	PoisonScratch(true)
	os.Exit(m.Run())
}

func assertClean(t *testing.T, what string, s []Scored, q vec.Query) {
	t.Helper()
	for _, sc := range s {
		if sc.ID < 0 || math.IsNaN(sc.Score) || len(sc.Proj) != q.Len() {
			t.Fatalf("%s: poisoned entry %+v", what, sc)
		}
		if got := vec.Dot(q.Weights, sc.Proj); got != sc.Score {
			t.Fatalf("%s: tuple %d projection %v no longer scores %v", what, sc.ID, sc.Proj, sc.Score)
		}
	}
}

// TestCompactSurvivesRelease: a compacted result is independent of the
// run's memory, which the arena hands to the next run of a different
// shape.
func TestCompactSurvivesRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		cs := fixture.RandCase(rng, 80+rng.Intn(200), 8, 2+rng.Intn(5), 1+rng.Intn(8))
		ix := lists.NewMemIndex(cs.Tuples, cs.M)
		ta := New(ix, cs.Q, cs.K, BestList)
		mustRun(t, ta)
		for i := 0; i < 3; i++ {
			ta.Resume()
		}
		res, cands := Compact(ta.Result()), Compact(ta.Candidates())
		want := TopKNaive(cs.Tuples, cs.Q, cs.K)
		ta.Release()
		ta.Release() // idempotent

		// Another run takes the released spans (or fresh ones) and
		// scribbles over them.
		other := fixture.RandCase(rng, 50+rng.Intn(300), 8, 2+rng.Intn(5), 3)
		tb := New(lists.NewMemIndex(other.Tuples, other.M), other.Q, other.K, RoundRobin)
		mustRun(t, tb)
		assertClean(t, "second run", tb.Result(), other.Q)
		tb.Release()

		assertClean(t, "compact result", res, cs.Q)
		assertClean(t, "compact candidates", cands, cs.Q)
		if len(res) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(res), len(want))
		}
		for i := range want {
			if res[i].ID != want[i].ID || res[i].Score != want[i].Score {
				t.Fatalf("trial %d rank %d: %+v, want %+v", trial, i, res[i], want[i])
			}
		}
	}
}

// TestUseAfterReleasePanics: a released run refuses every accessor
// instead of serving recycled memory.
func TestUseAfterReleasePanics(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	ix := lists.NewMemIndex(tuples, 2)
	ta := New(ix, q, k, RoundRobin)
	mustRun(t, ta)
	ta.Release()
	multi := NewMulti(ix, []vec.Query{q, q}, k, RoundRobin)
	mustRun(t, multi)
	multi.Release()
	multi.Release()
	for name, fn := range map[string]func(){
		"TA.Result":     func() { ta.Result() },
		"TA.Candidates": func() { ta.Candidates() },
		"TA.Resume":     func() { ta.Resume() },
		"TA.Ranking":    func() { ta.Ranking() },
		"TA.Run":        func() { ta.RunContext(context.Background()) },
		"Multi.Result":  func() { multi.Result(0) },
		"Multi.Run":     func() { multi.RunContext(context.Background()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestMultiCompactSurvivesRelease: member results compacted before
// Multi.Release stay intact.
func TestMultiCompactSurvivesRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cs := fixture.RandCase(rng, 300, 8, 4, 5)
	queries := weightVariants(rng, cs.Q, 4)
	ix := lists.NewMemIndex(cs.Tuples, cs.M)
	multi := NewMulti(ix, queries, cs.K, BestList)
	mustRun(t, multi)
	var res [][]Scored
	for i := range queries {
		res = append(res, Compact(multi.Result(i)))
	}
	multi.Release()
	for i, q := range queries {
		assertClean(t, "member result", res[i], q)
		want := TopKNaive(cs.Tuples, q, cs.K)
		for r := range want {
			if res[i][r].ID != want[r].ID || res[i][r].Score != want[r].Score {
				t.Fatalf("member %d rank %d: %+v, want %+v", i, r, res[i][r], want[r])
			}
		}
	}
}
