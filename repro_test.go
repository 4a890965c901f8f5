package repro_test

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/topk"
)

func exampleEngine() (*repro.Engine, repro.Query, int) {
	tuples, q, k := fixture.RunningExample()
	return repro.NewEngine(tuples, 2), q, k
}

func topK(t *testing.T, eng *repro.Engine, q repro.Query, k int) []repro.Scored {
	t.Helper()
	res, err := eng.TopK(context.Background(), q, k)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEngineTopK(t *testing.T) {
	eng, q, k := exampleEngine()
	res := topK(t, eng, q, k)
	if len(res) != 2 || res[0].ID != 1 || res[1].ID != 0 {
		t.Fatalf("TopK = %+v", res)
	}
	if eng.N() != 4 || eng.Dim() != 2 {
		t.Fatalf("N=%d Dim=%d", eng.N(), eng.Dim())
	}
}

func TestEngineAnalyze(t *testing.T) {
	eng, q, k := exampleEngine()
	a, err := eng.Analyze(context.Background(), q, k, repro.Options{Method: repro.CPT})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Regions) != 2 {
		t.Fatalf("%d regions", len(a.Regions))
	}
	if math.Abs(a.Regions[0].Lo-(-16.0/35)) > 1e-12 || math.Abs(a.Regions[0].Hi-0.1) > 1e-12 {
		t.Fatalf("IR1 = (%v, %v)", a.Regions[0].Lo, a.Regions[0].Hi)
	}
	if a.Metrics.Evaluated == 0 {
		t.Fatal("no metering")
	}
}

func TestEngineDiskRoundTrip(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	dir := t.TempDir()
	tp, lp := filepath.Join(dir, "t.dat"), filepath.Join(dir, "l.dat")
	if err := repro.SaveDataset(tp, lp, tuples, 2); err != nil {
		t.Fatal(err)
	}
	eng, err := repro.OpenEngine(tp, lp, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	a, err := eng.Analyze(context.Background(), q, k, repro.Options{Method: repro.CPT})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Regions[1].Lo-(-1.0/18)) > 1e-12 || math.Abs(a.Regions[1].Hi-0.5) > 1e-12 {
		t.Fatalf("IR2 = (%v, %v)", a.Regions[1].Lo, a.Regions[1].Hi)
	}
	if eng.Stats().RandReads() == 0 {
		t.Fatal("disk engine did not count I/O")
	}
}

// TestSessionOverDiskIndex is the end-to-end refinement workflow over a
// persisted dataset: a session opened through the unified engine (with
// checksum verification on), serving adjustments by safe skip, local
// hit and disk-backed recompute, each verified against ground truth.
func TestSessionOverDiskIndex(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	dir := t.TempDir()
	tp, lp := filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")
	if err := repro.SaveDataset(tp, lp, tuples, 2); err != nil {
		t.Fatal(err)
	}
	eng, err := repro.OpenEngineWithConfig(tp, lp, 16, repro.EngineConfig{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	sess, err := eng.NewSession(q, k, repro.Options{Method: repro.CPT, Phi: 1})
	if err != nil {
		t.Fatal(err)
	}
	check := func(step string) {
		t.Helper()
		want := topk.TopKNaive(tuples, sess.Query(), k)
		got := sess.Result()
		for i := range want {
			if got[i] != want[i].ID {
				t.Fatalf("%s: session result %v, requery %v", step, got, want)
			}
		}
	}
	// IR1 = (−16/35, +0.1): +0.05 is provably safe — no disk touched.
	seq0, rnd0, _ := eng.Stats().Snapshot()
	if changed, err := sess.AdjustWeight(0, 0.05); err != nil || changed {
		t.Fatalf("safe skip: changed=%v err=%v", changed, err)
	}
	if seq1, rnd1, _ := eng.Stats().Snapshot(); seq1 != seq0 || rnd1 != rnd0 {
		t.Fatal("safe skip touched the disk")
	}
	check("safe skip")
	// +0.10 more crosses the reorder bound at +0.1: the φ=1 schedule
	// answers locally.
	if changed, err := sess.AdjustWeight(0, 0.10); err != nil || !changed {
		t.Fatalf("local hit: changed=%v err=%v", changed, err)
	}
	check("local hit")
	// A large move on the other dimension forces a disk-backed recompute
	// through the engine.
	if _, err := sess.AdjustWeight(1, 0.4); err != nil {
		t.Fatal(err)
	}
	check("recompute")
	st := sess.Stats()
	if st.SafeSkips != 1 || st.LocalHits != 1 || st.Recomputes != 2 {
		t.Fatalf("session stats %+v", st)
	}
}

// TestFacadeCache smokes the answer cache through the public facade: a
// repeat Analyze is served (Source hit) with zero index I/O and
// identical regions, and CacheStats reports it.
func TestFacadeCache(t *testing.T) {
	eng, q, k := exampleEngine()
	first, err := eng.Analyze(context.Background(), q, k, repro.Options{Method: repro.CPT, Phi: 1})
	if err != nil {
		t.Fatal(err)
	}
	seq0, rnd0, _ := eng.Stats().Snapshot()
	second, err := eng.Analyze(context.Background(), q, k, repro.Options{Method: repro.CPT, Phi: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq1, rnd1, _ := eng.Stats().Snapshot(); seq1 != seq0 || rnd1 != rnd0 {
		t.Fatal("facade cache hit touched the index")
	}
	if second.Source.String() != "hit" {
		t.Fatalf("second source %v", second.Source)
	}
	if !reflect.DeepEqual(first.Regions, second.Regions) {
		t.Fatal("cached regions diverge")
	}
	if st := eng.CacheStats(); st.Hits != 1 {
		t.Fatalf("cache stats %+v", st)
	}
}

func TestNewQueryNewTuple(t *testing.T) {
	if _, err := repro.NewQuery([]int{0}, []float64{2}); err == nil {
		t.Fatal("invalid weight accepted")
	}
	tp, err := repro.NewTuple([]repro.Entry{{Dim: 3, Val: 0.5}})
	if err != nil || tp.Get(3) != 0.5 {
		t.Fatalf("NewTuple: %v %v", tp, err)
	}
	if got := repro.FromDense([]float64{0, 0.25}); got.Get(1) != 0.25 {
		t.Fatalf("FromDense: %v", got)
	}
}

func TestRenderSlider(t *testing.T) {
	eng, q, k := exampleEngine()
	a, err := eng.Analyze(context.Background(), q, k, repro.Options{Method: repro.CPT})
	if err != nil {
		t.Fatal(err)
	}
	s := repro.RenderSlider(q, a.Regions[0], 40)
	if !strings.Contains(s, "█") || !strings.Contains(s, "═") {
		t.Fatalf("slider missing marks: %q", s)
	}
	if !strings.Contains(s, "IR=(-0.4571, +0.1000)") {
		t.Fatalf("slider bounds wrong: %q", s)
	}
	// Tiny width is clamped, not broken.
	if short := repro.RenderSlider(q, a.Regions[1], 3); !strings.Contains(short, "dim") {
		t.Fatalf("short slider: %q", short)
	}
}

// TestTopKContextErrorPaths: the facade's query methods report invalid
// queries and cancellation as errors.
func TestTopKContextErrorPaths(t *testing.T) {
	eng, q, k := exampleEngine()

	if _, err := eng.TopK(context.Background(), q, 0); !errors.Is(err, repro.ErrInvalid) {
		t.Fatalf("k=0 err %v, want ErrInvalid", err)
	}
	bad := repro.Query{Dims: []int{0, 99}, Weights: []float64{0.5, 0.5}}
	if _, err := eng.TopK(context.Background(), bad, k); !errors.Is(err, repro.ErrInvalid) {
		t.Fatalf("out-of-range dim err %v, want ErrInvalid", err)
	}
	if _, _, err := eng.TopKTrace(context.Background(), bad, k); !errors.Is(err, repro.ErrInvalid) {
		t.Fatalf("trace out-of-range dim err %v, want ErrInvalid", err)
	}
	if _, err := eng.Analyze(context.Background(), bad, k, repro.Options{}); !errors.Is(err, repro.ErrInvalid) {
		t.Fatalf("analyze out-of-range dim err %v, want ErrInvalid", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.TopK(ctx, q, k); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx err %v, want context.Canceled", err)
	}
	if _, _, err := eng.TopKTrace(ctx, q, k); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled trace err %v, want context.Canceled", err)
	}
	if _, err := eng.Analyze(ctx, q, k, repro.Options{Method: repro.CPT}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled analyze err %v, want context.Canceled", err)
	}
}

// TestFacadeApply: the write path end to end through the public facade.
func TestFacadeApply(t *testing.T) {
	eng, q, k := exampleEngine()
	if !eng.Mutable() {
		t.Fatal("in-memory facade engine is not mutable")
	}
	before := topK(t, eng, q, k)

	res, err := eng.Apply([]repro.Op{
		{Kind: repro.OpInsert, Tuple: repro.FromDense([]float64{0.95, 0.95})},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || res.Results[0].ID != 4 {
		t.Fatalf("apply result %+v", res)
	}
	after := topK(t, eng, q, k)
	if after[0].ID != 4 || reflect.DeepEqual(before, after) {
		t.Fatalf("insert invisible: before %v after %v", before, after)
	}
	if st := eng.MutationStats(); st.Inserts != 1 || st.Batches != 1 {
		t.Fatalf("mutation stats %+v", st)
	}

	ro := repro.NewEngineWithConfig(fixtureTuples(), 2, repro.EngineConfig{ReadOnly: true})
	if _, err := ro.Apply([]repro.Op{{Kind: repro.OpDelete, ID: 0}}); !errors.Is(err, repro.ErrImmutable) {
		t.Fatalf("read-only facade err %v, want ErrImmutable", err)
	}
}

func fixtureTuples() []repro.Tuple {
	tuples, _, _ := fixture.RunningExample()
	return tuples
}

// TestOpenEngineDirReplaysWAL is the two-tools-one-directory pin: a
// durable server (engine.OpenDir with WAL) acknowledges a write that is
// not yet checkpointed; any other tool opening the directory through
// the facade must serve it — following the manifest alone and reading
// the stale files would silently drop acknowledged batches.
func TestOpenEngineDirReplaysWAL(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	dir := t.TempDir()
	if err := repro.SaveDataset(filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat"), tuples, 2); err != nil {
		t.Fatal(err)
	}
	srv, err := engine.OpenDir(dir, 64, engine.Config{WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Apply([]engine.Op{
		{Kind: engine.OpInsert, Tuple: repro.FromDense([]float64{0.95, 0.95})},
	}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	eng, err := repro.OpenEngineDir(dir, 64, repro.EngineConfig{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	res := topK(t, eng, q, k)
	if len(res) == 0 || res[0].ID != 4 {
		t.Fatalf("facade dir open missed the WAL-resident insert: %+v", res)
	}
}
