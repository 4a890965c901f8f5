package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/storage"
	"repro/internal/vec"
)

func memEngine(tuples []vec.Sparse, m int, cfg Config) *Engine {
	return New(lists.NewMemIndex(tuples, m), cfg)
}

// TestCacheHitEqualsRecompute is the cache's property test: across
// random scenarios, methods and φ budgets, a cache-served analysis must
// be bit-identical — result ids, scores, projections, regions and
// perturbation schedules — to recomputing the same query with the cache
// bypassed, and it must touch the index zero times.
func TestCacheHitEqualsRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7001))
	for trial := 0; trial < 10; trial++ {
		cs := fixture.RandCase(rng, 60+rng.Intn(60), 6, 3, 1+rng.Intn(5))
		eng := memEngine(cs.Tuples, cs.M, Config{})
		for _, method := range core.Methods {
			for _, phi := range []int{0, 2} {
				opts := Options{Options: core.Options{Method: method, Phi: phi}}
				if _, err := eng.Analyze(context.Background(), cs.Q, cs.K, opts); err != nil {
					t.Fatal(err)
				}
				seq0, rnd0, by0 := eng.Stats().Snapshot()
				hit, err := eng.Analyze(context.Background(), cs.Q, cs.K, opts)
				if err != nil {
					t.Fatal(err)
				}
				if seq1, rnd1, by1 := eng.Stats().Snapshot(); seq1 != seq0 || rnd1 != rnd0 || by1 != by0 {
					t.Fatalf("cache hit touched the index: seq %d→%d rand %d→%d", seq0, seq1, rnd0, rnd1)
				}
				if hit.Source != SourceCache {
					t.Fatalf("trial %d %v phi=%d: source %v, want cache hit", trial, method, phi, hit.Source)
				}
				opts.NoCache = true
				re, err := eng.Analyze(context.Background(), cs.Q, cs.K, opts)
				if err != nil {
					t.Fatal(err)
				}
				if re.Source != SourceBypass {
					t.Fatalf("bypass source %v", re.Source)
				}
				if !reflect.DeepEqual(hit.Result, re.Result) {
					t.Fatalf("trial %d %v phi=%d: cached result differs from recompute:\n%v\n%v",
						trial, method, phi, hit.Result, re.Result)
				}
				if !reflect.DeepEqual(hit.Regions, re.Regions) {
					t.Fatalf("trial %d %v phi=%d: cached regions differ from recompute:\n%v\n%v",
						trial, method, phi, hit.Regions, re.Regions)
				}
			}
		}
	}
}

// TestTopKRegionHitAndMiss pins the containment semantics on the
// paper's running example: IR1 = (−16/35, +0.1) around q1 = 0.8, so a
// nudge inside serves from the cache with the identical ranked result,
// while a nudge past the bound misses and recomputes — and indeed
// yields the perturbed ranking.
func TestTopKRegionHitAndMiss(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	eng := memEngine(tuples, 2, Config{})
	if _, err := eng.Analyze(context.Background(), q, k, Options{Options: core.Options{Method: core.MethodCPT}}); err != nil {
		t.Fatal(err)
	}

	inRegion := vec.MustQuery([]int{0, 1}, []float64{0.85, 0.5})
	seq0, rnd0, _ := eng.Stats().Snapshot()
	res, info, err := eng.TopKMetered(context.Background(), inRegion, k)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != SourceCacheRegion {
		t.Fatalf("in-region source %v, want region hit", info.Source)
	}
	if seq1, rnd1, _ := eng.Stats().Snapshot(); seq1 != seq0 || rnd1 != rnd0 {
		t.Fatal("region hit touched the index")
	}
	if len(res) != 2 || res[0].ID != 1 || res[1].ID != 0 {
		t.Fatalf("in-region result %v, want [d2 d1]", res)
	}
	// Scores must be bit-identical to a live TA at the nudged weights.
	fresh := memEngine(tuples, 2, Config{CacheEntries: -1})
	want, _, err := fresh.TopKMetered(context.Background(), inRegion, k)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(res[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("rescored score %v != computed %v", res[i].Score, want[i].Score)
		}
	}

	// Both weights nudged: the cross-polytope test, not a 1-D interval.
	multi := vec.MustQuery([]int{0, 1}, []float64{0.78, 0.52})
	if _, info, err = eng.TopKMetered(context.Background(), multi, k); err != nil || info.Source != SourceCacheRegion {
		t.Fatalf("multi-dim in-region: src=%v err=%v", info.Source, err)
	}

	// Past the +0.1 bound: must miss, and the recomputed ranking flips.
	outRegion := vec.MustQuery([]int{0, 1}, []float64{0.95, 0.5})
	res, info, err = eng.TopKMetered(context.Background(), outRegion, k)
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != SourceComputed {
		t.Fatalf("out-of-region source %v, want computed", info.Source)
	}
	if res[0].ID != 0 || res[1].ID != 1 {
		t.Fatalf("out-of-region result %v, want [d1 d2]", res)
	}
}

// TestTopKRegionHitRandom cross-validates region-served top-k answers
// against direct computation over random scenarios and random in-region
// nudges. Every third scenario holds each tuple twice, so the rescored
// result is full of exact ties that only the id tie-break of topk.ByRank
// orders the way a fresh scan does.
func TestTopKRegionHitRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7002))
	for trial := 0; trial < 15; trial++ {
		cs := fixture.RandCase(rng, 50+rng.Intn(80), 6, 3, 1+rng.Intn(4))
		if trial%3 == 2 {
			cs.Tuples = append(cs.Tuples, cs.Tuples...)
			cs.K *= 2
		}
		eng := memEngine(cs.Tuples, cs.M, Config{})
		a, err := eng.Analyze(context.Background(), cs.Q, cs.K, Options{Options: core.Options{Method: core.MethodCPT}})
		if err != nil {
			t.Fatal(err)
		}
		fresh := memEngine(cs.Tuples, cs.M, Config{CacheEntries: -1})
		for step := 0; step < 10; step++ {
			q2 := cs.Q.Clone()
			for jx := range q2.Weights {
				reg := a.Regions[jx]
				span := (reg.Hi - reg.Lo) / float64(2*q2.Len())
				d := (rng.Float64() - 0.5) * span
				w := q2.Weights[jx] + d
				if w <= 0 || w > 1 {
					continue
				}
				q2.Weights[jx] = w
			}
			got, info, err := eng.TopKMetered(context.Background(), q2, cs.K)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := fresh.TopKMetered(context.Background(), q2, cs.K)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d: %d results, want %d", trial, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
					t.Fatalf("trial %d step %d (src %v): got %v want %v", trial, step, info.Source, got, want)
				}
			}
		}
	}
}

// TestValidation checks that malformed requests are rejected with
// ErrInvalid before any execution.
func TestValidation(t *testing.T) {
	tuples, q, _ := fixture.RunningExample()
	eng := memEngine(tuples, 2, Config{})
	cases := []struct {
		name string
		run  func() error
	}{
		{"zero k", func() error { _, err := eng.Analyze(nil, q, 0, Options{}); return err }},
		{"negative phi", func() error {
			_, err := eng.Analyze(nil, q, 1, Options{Options: core.Options{Phi: -1}})
			return err
		}},
		{"dim out of range", func() error {
			bad := vec.MustQuery([]int{0, 9}, []float64{0.5, 0.5})
			_, err := eng.Analyze(nil, bad, 1, Options{})
			return err
		}},
		{"topk zero k", func() error { _, _, err := eng.TopKMetered(nil, q, 0); return err }},
	}
	for _, c := range cases {
		if err := c.run(); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err=%v, want ErrInvalid", c.name, err)
		}
	}
}

// cancelIndex cancels a context after a fixed number of tuple fetches —
// a deterministic stand-in for a client disconnecting mid-query.
type cancelIndex struct {
	lists.Index
	cancel func()
	left   *atomic.Int64
}

func (c *cancelIndex) Tuple(id int) vec.Sparse {
	c.fetch()
	return c.Index.Tuple(id)
}

// Project is the fetch the query path makes; without this override the
// embedded index would serve it uncounted and the test would never fire.
func (c *cancelIndex) Project(id int, dims []int, dst []float64) error {
	c.fetch()
	return c.Index.Project(id, dims, dst)
}

func (c *cancelIndex) fetch() {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
}

func (c *cancelIndex) WithStats(st *storage.IOStats) lists.Index {
	return &cancelIndex{Index: c.Index.WithStats(st), cancel: c.cancel, left: c.left}
}

// TestAnalyzeCancelMidQuery proves the context threads all the way into
// the pipeline: when the client disconnects partway through (here:
// after the 5th tuple fetch), Analyze aborts with the context's error
// instead of completing — and certainly instead of returning a result.
func TestAnalyzeCancelMidQuery(t *testing.T) {
	rng := rand.New(rand.NewSource(7003))
	cs := fixture.RandCase(rng, 400, 8, 4, 10)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var left atomic.Int64
	left.Store(5)
	ix := &cancelIndex{Index: lists.NewMemIndex(cs.Tuples, cs.M), cancel: cancel, left: &left}
	eng := New(ix, Config{CacheEntries: -1})
	a, err := eng.Analyze(ctx, cs.Q, cs.K, Options{Options: core.Options{Method: core.MethodScan, Phi: 2}})
	if err == nil {
		t.Fatalf("canceled query completed: %+v", a.Metrics)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Pre-canceled contexts must fail too, for TopK as well.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := eng.Analyze(done, cs.Q, cs.K, Options{}); err == nil {
		t.Fatal("pre-canceled Analyze succeeded")
	}
	if _, _, err := eng.TopKMetered(done, cs.Q, cs.K); err == nil {
		t.Fatal("pre-canceled TopK succeeded")
	}
}

// TestOpenVerifyChecksums exercises the checksum option folded into
// Open: intact files open, a corrupted byte is caught before serving.
func TestOpenVerifyChecksums(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	dir := t.TempDir()
	tp, lp := filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")
	if err := lists.SaveDataset(tp, lp, tuples, 2); err != nil {
		t.Fatal(err)
	}
	eng, err := Open(tp, lp, Config{VerifyChecksums: true})
	if err != nil {
		t.Fatalf("verified open of intact files: %v", err)
	}
	if _, err := eng.Analyze(context.Background(), q, k, Options{Options: core.Options{Method: core.MethodCPT}}); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	corruptFile(t, tp)
	if _, err := Open(tp, lp, Config{VerifyChecksums: true}); err == nil {
		t.Fatal("verified open accepted a corrupted tuple file")
	}
}

func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}
