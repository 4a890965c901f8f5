package engine

import (
	"context"
	"errors"
	"maps"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/storage"
	"repro/internal/vec"
)

func cloneTuples(ts []vec.Sparse) []vec.Sparse {
	out := make([]vec.Sparse, len(ts))
	for i, t := range ts {
		if t != nil {
			out[i] = t.Clone()
		}
	}
	return out
}

func mustApply(t *testing.T, eng *Engine, ops ...Op) ApplyResult {
	t.Helper()
	res, err := eng.Apply(ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, or := range res.Results {
		if or.Err != nil {
			t.Fatalf("op %d: %v", i, or.Err)
		}
	}
	return res
}

// assertSameAnswers checks that eng (possibly serving from cache) and a
// fresh engine agree bit-identically on the analysis and the ranked
// top-k of one query.
func assertSameAnswers(t *testing.T, eng, fresh *Engine, q vec.Query, k int, opts Options) {
	t.Helper()
	a1 := analyzeMust(t, eng, q, k, opts)
	a2 := analyzeMust(t, fresh, q, k, opts)
	if !reflect.DeepEqual(a1.Result, a2.Result) {
		t.Fatalf("analysis result diverged (source %v):\n  got  %+v\n  want %+v", a1.Source, a1.Result, a2.Result)
	}
	if !reflect.DeepEqual(a1.Regions, a2.Regions) {
		t.Fatalf("regions diverged (source %v):\n  got  %+v\n  want %+v", a1.Source, a1.Regions, a2.Regions)
	}
	r1, _, err := eng.TopKMetered(context.Background(), q, k)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := fresh.TopKMetered(context.Background(), q, k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("topk diverged:\n  got  %+v\n  want %+v", r1, r2)
	}
}

// TestApplyRunningExampleCertificates walks the paper's running example
// through the certificate's verdicts: changes provably below every
// result line keep the cached analysis serving; changes that can cross
// one inside the region polytope evict it — and in every state the
// served answers match a fresh engine built on the current dataset.
func TestApplyRunningExampleCertificates(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	eng := memEngine(cloneTuples(tuples), 2, Config{})
	opts := Options{Options: core.Options{Method: core.MethodCPT}}
	shadow := cloneTuples(tuples)

	fresh := func() *Engine { return memEngine(cloneTuples(shadow), 2, Config{CacheEntries: -1}) }
	analyzeMust(t, eng, q, k, opts)

	// d4 (id 3) is far below the result everywhere in the polytope:
	// nudging it cannot touch the certificate.
	nudged := vec.MustSparse(vec.Entry{Dim: 0, Val: 0.1}, vec.Entry{Dim: 1, Val: 0.55})
	res := mustApply(t, eng, Op{Kind: OpUpdate, ID: 3, Tuple: nudged})
	shadow[3] = nudged
	if res.CacheChecked != 1 || res.CacheEvicted != 0 || res.CacheSurvived != 1 {
		t.Fatalf("survivor batch accounting %+v", res)
	}
	if a := analyzeMust(t, eng, q, k, opts); a.Source != SourceCache {
		t.Fatalf("surviving entry source %v, want cache hit", a.Source)
	}
	assertSameAnswers(t, eng, fresh(), q, k, opts)

	// An in-region /topk off the anchor still serves from the survivor.
	qin := vec.MustQuery([]int{0, 1}, []float64{0.82, 0.5})
	if _, info, err := eng.TopKMetered(context.Background(), qin, k); err != nil || info.Source != SourceCacheRegion {
		t.Fatalf("in-region topk src %v err %v, want region hit", info.Source, err)
	}
	assertSameAnswers(t, eng, fresh(), qin, k, opts)

	// An insert that stays strictly below both result lines over the
	// whole polytope survives too.
	tiny := vec.MustSparse(vec.Entry{Dim: 0, Val: 0.05})
	res = mustApply(t, eng, Op{Kind: OpInsert, Tuple: tiny})
	shadow = append(shadow, tiny)
	// Two anchors are cached by now: the original query and qin.
	if res.CacheEvicted != 0 || res.CacheSurvived != 2 {
		t.Fatalf("tiny-insert accounting %+v", res)
	}
	if res.Results[0].ID != 4 {
		t.Fatalf("insert id %d, want 4", res.Results[0].ID)
	}
	assertSameAnswers(t, eng, fresh(), q, k, opts)

	// d3 (id 2) defines the left region bound — its score line touches
	// d1's exactly at a polytope vertex, so any change to it must evict.
	moved := vec.MustSparse(vec.Entry{Dim: 0, Val: 0.1}, vec.Entry{Dim: 1, Val: 0.75})
	res = mustApply(t, eng, Op{Kind: OpUpdate, ID: 2, Tuple: moved})
	shadow[2] = moved
	// d3's line touches d1's at both anchors' polytope vertices.
	if res.CacheEvicted != 2 || res.CacheSurvived != 0 {
		t.Fatalf("bound-defining update accounting %+v", res)
	}
	if a := analyzeMust(t, eng, q, k, opts); a.Source != SourceComputed {
		t.Fatalf("post-eviction source %v, want recompute", a.Source)
	}
	assertSameAnswers(t, eng, fresh(), q, k, opts)

	// Deleting a result member evicts: its cached projection is stale.
	res = mustApply(t, eng, Op{Kind: OpDelete, ID: 1})
	shadow[1] = nil
	if res.CacheEvicted != 1 {
		t.Fatalf("result-member delete accounting %+v", res)
	}
	assertSameAnswers(t, eng, fresh(), q, k, opts)

	// A dominant insert evicts: it joins the result everywhere.
	analyzeMust(t, eng, q, k, opts)
	dominant := vec.MustSparse(vec.Entry{Dim: 0, Val: 0.9}, vec.Entry{Dim: 1, Val: 0.9})
	res = mustApply(t, eng, Op{Kind: OpInsert, Tuple: dominant})
	shadow = append(shadow, dominant)
	if res.CacheEvicted != 1 {
		t.Fatalf("dominant-insert accounting %+v", res)
	}
	assertSameAnswers(t, eng, fresh(), q, k, opts)

	// φ > 0 entries carry perturbation schedules beyond the certified
	// polytope: any subspace-touching change evicts them.
	phiOpts := Options{Options: core.Options{Method: core.MethodCPT, Phi: 2}}
	analyzeMust(t, eng, q, k, phiOpts)
	nudged2 := vec.MustSparse(vec.Entry{Dim: 0, Val: 0.1}, vec.Entry{Dim: 1, Val: 0.5})
	res = mustApply(t, eng, Op{Kind: OpUpdate, ID: 3, Tuple: nudged2})
	shadow[3] = nudged2
	evictedPhi := false
	for _, n := range []int{res.CacheEvicted} {
		if n >= 1 {
			evictedPhi = true
		}
	}
	if !evictedPhi {
		t.Fatalf("phi>0 entry survived a subspace-touching change: %+v", res)
	}
	assertSameAnswers(t, eng, fresh(), q, k, phiOpts)

	st := eng.MutationStats()
	if st.Inserts != 2 || st.Updates != 3 || st.Deletes != 1 || st.Batches != 6 {
		t.Fatalf("mutation stats %+v", st)
	}
}

// randOpTuple draws a non-empty mutation payload (empty tuples are
// rejected: they are the on-disk tombstone encoding); half the draws
// are low-valued so the certificate has genuine survivors to prove.
func randOpTuple(rng *rand.Rand, m int) vec.Sparse {
	scale := 1.0
	if rng.Float64() < 0.5 {
		scale = 0.2
	}
	var entries []vec.Entry
	for len(entries) == 0 {
		for d := 0; d < m; d++ {
			if rng.Float64() < 0.5 {
				entries = append(entries, vec.Entry{Dim: d, Val: scale * (0.05 + 0.9*rng.Float64())})
			}
		}
	}
	t, err := vec.NewSparse(entries)
	if err != nil {
		panic(err)
	}
	return t
}

// randSubspaceQuery draws a query over a random subspace of [0,m).
func randSubspaceQuery(rng *rand.Rand, m, qlen int) vec.Query {
	dims := rng.Perm(m)[:qlen]
	weights := make([]float64, qlen)
	for i := range weights {
		weights[i] = 0.05 + 0.95*rng.Float64()
	}
	return vec.MustQuery(dims, weights)
}

// TestApplyPropertyFreshEquivalence is the acceptance property test:
// after a random sequence of inserts, updates and deletes, every
// /analyze and /topk answer — whether a certified cache survivor or a
// recompute — is bit-identical to a fresh engine built on the
// post-update dataset. The trial count is tuned so both verdicts
// (survive and evict) are exercised many times.
func TestApplyPropertyFreshEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(90125))
	var survived, evicted int64
	for trial := 0; trial < 12; trial++ {
		cs := fixture.RandCase(rng, 50+rng.Intn(40), 6, 3, 1+rng.Intn(4))
		shadow := cloneTuples(cs.Tuples)
		eng := memEngine(cloneTuples(cs.Tuples), cs.M, Config{})

		type req struct {
			q    vec.Query
			opts Options
		}
		reqs := []req{{cs.Q, Options{Options: core.Options{Method: core.MethodCPT}}}}
		for i := 0; i < 3; i++ {
			phi := 0
			if i == 2 {
				phi = 2
			}
			reqs = append(reqs, req{
				q:    randSubspaceQuery(rng, cs.M, 2+rng.Intn(2)),
				opts: Options{Options: core.Options{Method: core.MethodCPT, Phi: phi}},
			})
		}
		for _, r := range reqs {
			analyzeMust(t, eng, r.q, cs.K, r.opts)
		}

		// A random op batch, mirrored into the shadow dataset.
		var ops []Op
		for len(ops) < 6 {
			switch rng.Intn(3) {
			case 0:
				tu := randOpTuple(rng, cs.M)
				ops = append(ops, Op{Kind: OpInsert, Tuple: tu})
				shadow = append(shadow, tu)
			case 1:
				id := rng.Intn(len(cs.Tuples))
				if shadow[id] == nil {
					continue
				}
				tu := randOpTuple(rng, cs.M)
				ops = append(ops, Op{Kind: OpUpdate, ID: id, Tuple: tu})
				shadow[id] = tu
			default:
				id := rng.Intn(len(cs.Tuples))
				if shadow[id] == nil {
					continue
				}
				ops = append(ops, Op{Kind: OpDelete, ID: id})
				shadow[id] = nil
			}
		}
		res := mustApply(t, eng, ops...)
		survived += int64(res.CacheSurvived)
		evicted += int64(res.CacheEvicted)

		fresh := memEngine(cloneTuples(shadow), cs.M, Config{CacheEntries: -1})
		for _, r := range reqs {
			assertSameAnswers(t, eng, fresh, r.q, cs.K, r.opts)
		}
		// A query never analyzed before the update must agree too.
		qNew := randSubspaceQuery(rng, cs.M, 2)
		assertSameAnswers(t, eng, fresh, qNew, cs.K, Options{Options: core.Options{Method: core.MethodCPT}})
	}
	if survived == 0 {
		t.Fatal("no cache entry ever survived: the certificate was never exercised")
	}
	if evicted == 0 {
		t.Fatal("no cache entry was ever evicted: the test is too weak")
	}
}

// TestInvalidateProjectsOncePerBucket: over random batches, the cache
// entries invalidateCertified keeps — it projects each change once per
// subspace bucket — are exactly the entries the per-entry scan keeps
// (every change projected onto each entry's own query), and every entry
// counts as checked. A batch mixes updates of one dimension, some to
// the value already stored, inserts and deletes of short tuples, so
// buckets fall on both sides: some see no change, some a visible one.
func TestInvalidateProjectsOncePerBucket(t *testing.T) {
	const m = 12
	rng := rand.New(rand.NewSource(4040))
	short := func() vec.Sparse { // one or two entries, or none
		var es []vec.Entry
		for _, d := range rng.Perm(m)[:rng.Intn(3)] {
			es = append(es, vec.Entry{Dim: d, Val: 0.05 + 0.9*rng.Float64()})
		}
		return vec.MustSparse(es...)
	}
	var skipped, scanned, mixed, survived, evicted int
	for trial := 0; trial < 40; trial++ {
		cs := fixture.RandCase(rng, 60, m, 2, 1+rng.Intn(4))
		eng := memEngine(cloneTuples(cs.Tuples), m, Config{})
		for range 24 {
			phi := 0
			if rng.Intn(5) == 0 {
				phi = 1
			}
			analyzeMust(t, eng, randSubspaceQuery(rng, m, 1+rng.Intn(3)), cs.K,
				Options{Options: core.Options{Method: core.MethodCPT, Phi: phi}})
		}
		var changes []tupleChange
		for range 1 + rng.Intn(3) {
			id := rng.Intn(len(cs.Tuples))
			switch rng.Intn(4) {
			case 0: // insert
				changes = append(changes, tupleChange{id: len(cs.Tuples), new: short(), hasNew: true})
			case 1: // delete
				changes = append(changes, tupleChange{id: id, old: short(), hasOld: true})
			default: // update: one dimension set, dropped or left as it is
				old := cs.Tuples[id]
				cur := old.Clone()
				i := rng.Intn(len(cur))
				switch rng.Intn(3) {
				case 0:
					cur[i].Val = 0.05 + 0.9*rng.Float64()
				case 1:
					cur = slices.Delete(cur, i, i+1)
				}
				changes = append(changes, tupleChange{id: id, old: old, new: cur, hasOld: true, hasNew: true})
			}
		}

		c := eng.cache
		want, total := map[*entry]bool{}, 0
		for _, bucket := range c.buckets {
			touched, kept := false, 0
			for _, en := range bucket {
				total++
				survives := true
				for _, ch := range changes {
					oldP, newP := en.out.Query.Project(ch.old), en.out.Query.Project(ch.new)
					if !slices.Equal(oldP, newP) {
						touched = true
						survives = survives && changeSurvives(en, ch, oldP, newP)
					}
				}
				if survives {
					want[en] = true
					kept++
				}
			}
			if kept > 0 && kept < len(bucket) {
				mixed++
			}
			if touched {
				scanned++
			} else {
				skipped++
			}
		}
		checked, ev := c.invalidateCertified(changes)
		got := map[*entry]bool{}
		for _, bucket := range c.buckets {
			for _, en := range bucket {
				got[en] = true
			}
		}
		if checked != total || ev != total-len(want) || !maps.Equal(got, want) {
			t.Fatalf("trial %d: checked %d, evicted %d, %d survivors; the per-entry scan checks %d and keeps %d (changes %+v)",
				trial, checked, ev, len(got), total, len(want), changes)
		}
		survived += len(want)
		evicted += ev
	}
	if skipped == 0 || scanned == 0 || mixed == 0 || survived == 0 || evicted == 0 {
		t.Fatalf("%d buckets untouched, %d touched, %d mixed; %d entries survived, %d evicted: want each > 0",
			skipped, scanned, mixed, survived, evicted)
	}
	t.Logf("%d buckets untouched, %d touched, %d mixed (survivors and evictions); %d entries survived, %d evicted",
		skipped, scanned, mixed, survived, evicted)
}

// TestApplyInvalidationZeroIndexIO: the per-entry certificate checks of
// an Apply batch cost no logical index I/O — they work entirely on
// cached projections. All the batch is charged is the overlay's read of
// the base version of a base tuple it changes first: here, tuple 3's,
// once (the delete finds the update's version in the overlay).
func TestApplyInvalidationZeroIndexIO(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	eng := memEngine(cloneTuples(tuples), 2, Config{})
	analyzeMust(t, eng, q, k, Options{Options: core.Options{Method: core.MethodCPT}})

	var want storage.IOStats
	lists.NewMemIndex(tuples, 2).WithStats(&want).Tuple(3)
	seq0, rnd0, by0 := eng.Stats().Snapshot()
	res := mustApply(t, eng,
		Op{Kind: OpUpdate, ID: 3, Tuple: vec.MustSparse(vec.Entry{Dim: 1, Val: 0.55})},
		Op{Kind: OpInsert, Tuple: vec.MustSparse(vec.Entry{Dim: 0, Val: 0.9}, vec.Entry{Dim: 1, Val: 0.9})},
		Op{Kind: OpDelete, ID: 3},
	)
	if res.CacheChecked == 0 {
		t.Fatal("no cache entry was checked")
	}
	seq1, rnd1, by1 := eng.Stats().Snapshot()
	if wantSeq, wantRnd, wantBy := want.Snapshot(); seq1-seq0 != wantSeq || rnd1-rnd0 != wantRnd || by1-by0 != wantBy {
		t.Fatalf("apply charged seq %d rand %d bytes %d, want one base read (seq %d rand %d bytes %d)",
			seq1-seq0, rnd1-rnd0, by1-by0, wantSeq, wantRnd, wantBy)
	}
}

// TestApplyLeavesCallerTuples: an engine over a MemIndex writes to its
// overlay, never to the tuples the index was built from — after an
// update, a delete and an insert, the caller's slice reads element for
// element as it did before.
func TestApplyLeavesCallerTuples(t *testing.T) {
	ts, _, _ := fixture.RunningExample()
	want := cloneTuples(ts)
	eng := New(lists.NewMemIndex(ts, 2), Config{})
	mustApply(t, eng,
		Op{Kind: OpUpdate, ID: 1, Tuple: vec.MustSparse(vec.Entry{Dim: 0, Val: 0.2})},
		Op{Kind: OpDelete, ID: 2},
		Op{Kind: OpInsert, Tuple: vec.MustSparse(vec.Entry{Dim: 1, Val: 0.9})},
	)
	for i := range want {
		if !slices.Equal(ts[i], want[i]) {
			t.Fatalf("caller's tuple %d reads %v after Apply, was %v", i, ts[i], want[i])
		}
	}
}

// TestApplyErrors pins the failure modes: read-only engines, empty
// batches, per-op failures that leave the rest of the batch applied.
func TestApplyErrors(t *testing.T) {
	tuples, q, k := fixture.RunningExample()

	ro := memEngine(cloneTuples(tuples), 2, Config{ReadOnly: true})
	if _, err := ro.Apply([]Op{{Kind: OpDelete, ID: 0}}); !errors.Is(err, ErrImmutable) {
		t.Fatalf("read-only Apply err %v, want ErrImmutable", err)
	}

	eng := memEngine(cloneTuples(tuples), 2, Config{})
	if _, err := eng.Apply(nil); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty Apply err %v, want ErrInvalid", err)
	}
	res, err := eng.Apply([]Op{
		{Kind: OpDelete, ID: 99}, // out of range
		{Kind: OpInsert, Tuple: vec.MustSparse(vec.Entry{Dim: 0, Val: 0.3})}, // fine
		{Kind: OpKind(7)}, // unknown
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Results[0].Err == nil || res.Results[2].Err == nil {
		t.Fatalf("per-op errors missing: %+v", res.Results)
	}
	if res.Results[1].Err != nil || res.Results[1].ID != 4 || res.Applied != 1 {
		t.Fatalf("valid op in failing batch: %+v", res)
	}
	if _, _, err := eng.TopKMetered(context.Background(), q, k); err != nil {
		t.Fatal(err)
	}
}

// TestApplyDiskOverlayEngine: the full write path over a persisted
// dataset — engine.Open's disk index is served through the delta overlay, and
// post-update answers match a fresh in-memory engine on the updated
// dataset.
func TestApplyDiskOverlayEngine(t *testing.T) {
	tuples, q, k := fixture.RunningExample()
	dir := t.TempDir()
	tp, lp := filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")
	if err := lists.SaveDataset(tp, lp, tuples, 2); err != nil {
		t.Fatal(err)
	}
	eng, err := Open(tp, lp, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if !eng.Mutable() {
		t.Fatal("opened engine is not mutable")
	}

	opts := Options{Options: core.Options{Method: core.MethodCPT}}
	analyzeMust(t, eng, q, k, opts)

	shadow := cloneTuples(tuples)
	nudged := vec.MustSparse(vec.Entry{Dim: 0, Val: 0.1}, vec.Entry{Dim: 1, Val: 0.55})
	res := mustApply(t, eng,
		Op{Kind: OpUpdate, ID: 3, Tuple: nudged},
		Op{Kind: OpInsert, Tuple: vec.MustSparse(vec.Entry{Dim: 1, Val: 0.95})},
		Op{Kind: OpDelete, ID: 0},
	)
	shadow[3] = nudged
	shadow = append(shadow, vec.MustSparse(vec.Entry{Dim: 1, Val: 0.95}))
	shadow[0] = nil
	if res.Applied != 3 {
		t.Fatalf("applied %d, want 3", res.Applied)
	}

	fresh := memEngine(cloneTuples(shadow), 2, Config{CacheEntries: -1})
	assertSameAnswers(t, eng, fresh, q, k, opts)

	// ReadOnly open serves the raw disk index: immutable.
	ro, err := Open(tp, lp, Config{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if ro.Mutable() {
		t.Fatal("read-only open produced a mutable engine")
	}
}

// TestApplyConcurrentWithQueries hammers the write path against live
// query traffic (run under -race): readers must always see a coherent
// index, and the final state must match a fresh engine.
func TestApplyConcurrentWithQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	cs := fixture.RandCase(rng, 80, 6, 3, 5)
	eng := memEngine(cloneTuples(cs.Tuples), cs.M, Config{})
	shadow := cloneTuples(cs.Tuples)
	opts := Options{Options: core.Options{Method: core.MethodCPT}}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := cs.Q
				if r.Intn(2) == 0 {
					q = randSubspaceQuery(r, cs.M, 2)
				}
				if _, err := eng.Analyze(context.Background(), q, cs.K, opts); err != nil {
					t.Errorf("analyze: %v", err)
					return
				}
				if _, _, err := eng.TopKMetered(context.Background(), q, cs.K); err != nil {
					t.Errorf("topk: %v", err)
					return
				}
			}
		}(int64(1000 + w))
	}

	// The writer owns the shadow: updates and inserts only, so every op
	// is always valid.
	for i := 0; i < 25; i++ {
		var ops []Op
		for j := 0; j < 3; j++ {
			tu := randOpTuple(rng, cs.M)
			if rng.Intn(2) == 0 {
				id := rng.Intn(len(cs.Tuples))
				ops = append(ops, Op{Kind: OpUpdate, ID: id, Tuple: tu})
				shadow[id] = tu
			} else {
				ops = append(ops, Op{Kind: OpInsert, Tuple: tu})
				shadow = append(shadow, tu)
			}
		}
		mustApply(t, eng, ops...)
	}
	close(stop)
	wg.Wait()

	fresh := memEngine(cloneTuples(shadow), cs.M, Config{CacheEntries: -1})
	assertSameAnswers(t, eng, fresh, cs.Q, cs.K, opts)
}
