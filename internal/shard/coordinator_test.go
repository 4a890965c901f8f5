package shard

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/topk"
	"repro/internal/vec"
)

// scriptedBackend wraps a real Local backend but lets the test gate and
// replace individual TopK calls: call n blocks on gates[n-1] (when
// present) and returns answers[n-1] (when non-nil) instead of the live
// answer. entered receives the call number as each attempt arrives.
type scriptedBackend struct {
	Local
	mu      sync.Mutex
	n       int
	entered chan int
	gates   []chan struct{}
	answers [][]topk.Scored
}

func (s *scriptedBackend) TopK(ctx context.Context, q vec.Query, k int) ([]topk.Scored, error) {
	s.mu.Lock()
	s.n++
	n := s.n
	s.mu.Unlock()
	if s.entered != nil {
		s.entered <- n
	}
	if n <= len(s.gates) && s.gates[n-1] != nil {
		<-s.gates[n-1]
	}
	if n <= len(s.answers) && s.answers[n-1] != nil {
		return s.answers[n-1], nil
	}
	return s.Local.TopK(ctx, q, k)
}

// failingBackend fails every RPC.
type failingBackend struct{ err error }

func (f failingBackend) TopK(context.Context, vec.Query, int) ([]topk.Scored, error) {
	return nil, f.err
}
func (f failingBackend) AnalyzeImposed(context.Context, vec.Query, int, int, []topk.Scored, engine.Options) (*core.Output, []topk.Scored, error) {
	return nil, nil, f.err
}
func (f failingBackend) Apply([]engine.Op) (engine.ApplyResult, error) {
	return engine.ApplyResult{}, f.err
}

// TestRetryNoDoubleMerge is the satellite-4 regression: a shard RPC
// retried after a per-attempt timeout must merge exactly one answer —
// the retry's — even when the superseded first attempt's answer arrives
// while the merge is still waiting. The stale answer here reports a
// tuple that a mutation tombstoned between the attempts (the
// lists.Overlay hazard): merging it would resurrect the deleted tuple,
// merging both would double-count the shard.
func TestRetryNoDoubleMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(4203))
	ctx := context.Background()
	cs := fixture.RandCase(rng, 40, 6, 2, 3)
	single := singleNode(cs.Tuples, cs.M)

	bases := EvenBases(len(cs.Tuples), 2)
	engines, err := engine.NewLocalShards(cs.Tuples, cs.M, bases, engine.Config{CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	scripted := &scriptedBackend{
		Local:   Local{E: engines[1]},
		entered: make(chan int, 4),
		gates:   []chan struct{}{make(chan struct{}), make(chan struct{})},
	}
	// The stale answer claims a pre-delete view: the about-to-be-deleted
	// tuple (global id bases[1], local id 0 on shard 1) at an impossibly
	// good score. If the guard ever lets it through, it lands at rank 0
	// of the merge and the test fails loudly.
	stale := []topk.Scored{{ID: 0, Score: 1e9, Proj: make([]float64, cs.Q.Len())}}
	scripted.answers = [][]topk.Scored{stale, nil}

	mp, err := NewMap(bases)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New(mp, []Backend{Local{E: engines[0]}, scripted}, Config{
		MaxRetries: 1,
		// Generous: the whole stale-delivery sequence below must fit in
		// one attempt window, or the retry itself would time out.
		AttemptTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	staleBefore := mStaleDrops.Value()

	type res struct {
		r   []topk.Scored
		err error
	}
	done := make(chan res, 1)
	go func() {
		r, err := coord.TopK(ctx, cs.Q, cs.K)
		done <- res{r, err}
	}()

	// Attempt 1 arrives and blocks; the per-attempt timeout lapses and
	// attempt 2 arrives, also blocked.
	if n := <-scripted.entered; n != 1 {
		t.Fatalf("first call numbered %d", n)
	}
	if n := <-scripted.entered; n != 2 {
		t.Fatalf("second call numbered %d", n)
	}
	// Tombstone the victim between the attempts, as a racing delete
	// would: the stale answer now reports a dead tuple.
	if _, err := coord.Apply([]engine.Op{{Kind: engine.OpDelete, ID: bases[1]}}); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := single.Apply([]engine.Op{{Kind: engine.OpDelete, ID: bases[1]}}); err != nil {
		t.Fatalf("single delete: %v", err)
	}
	// Release the STALE attempt first — its answer reaches the
	// coordinator while the fresh attempt is still running and must be
	// discarded — then the fresh one.
	close(scripted.gates[0])
	for mStaleDrops.Value() == staleBefore {
		time.Sleep(time.Millisecond)
	}
	close(scripted.gates[1])

	r := <-done
	if r.err != nil {
		t.Fatalf("sharded topk: %v", r.err)
	}
	want, _, err := single.TopKMetered(ctx, cs.Q, cs.K)
	if err != nil {
		t.Fatalf("single topk: %v", err)
	}
	diffScored(t, "retry/topk", r.r, want)
	for _, sc := range r.r {
		if sc.Score == 1e9 {
			t.Fatalf("stale pre-delete answer merged: %+v", r.r)
		}
	}
	if got := mStaleDrops.Value() - staleBefore; got != 1 {
		t.Fatalf("stale drops = %d, want 1", got)
	}
}

// TestFailClosed pins the shard-failure posture: any shard
// failing its RPC budget fails the whole query with the shard named,
// for reads; mutations fail closed with no retry at all.
func TestFailClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(4204))
	ctx := context.Background()
	cs := fixture.RandCase(rng, 40, 6, 2, 3)
	coord := localCoord(t, cs.Tuples, cs.M, 4, Config{})
	boom := errors.New("shard down")
	coord.backends[2] = failingBackend{err: boom}

	if _, err := coord.TopK(ctx, cs.Q, cs.K); !errors.Is(err, boom) {
		t.Fatalf("topk error = %v, want wrapped %v", err, boom)
	}
	if _, err := coord.Analyze(ctx, cs.Q, cs.K, engine.Options{}); !errors.Is(err, boom) {
		t.Fatalf("analyze error = %v, want wrapped %v", err, boom)
	}
	// The failing shard owns ids [Base(2), Base(3)): a delete routed
	// there must fail, and the batch must stop at it.
	if _, err := coord.Apply([]engine.Op{{Kind: engine.OpDelete, ID: coord.m.Base(2)}}); !errors.Is(err, boom) {
		t.Fatalf("apply error = %v, want wrapped %v", err, boom)
	}
}

// stalledBackend answers no TopK until the attempt's context ends. It
// keeps every attempt's context, and notes at each entry whether the
// attempt before it had already been cancelled.
type stalledBackend struct {
	failingBackend
	mu       sync.Mutex
	ctxs     []context.Context
	prevDone []bool
}

func (s *stalledBackend) TopK(ctx context.Context, _ vec.Query, _ int) ([]topk.Scored, error) {
	s.mu.Lock()
	s.prevDone = append(s.prevDone, len(s.ctxs) == 0 || s.ctxs[len(s.ctxs)-1].Err() != nil)
	s.ctxs = append(s.ctxs, ctx)
	s.mu.Unlock()
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestStalledShardAttemptsCancelled: every attempt on a shard that never
// answers is cancelled once a newer attempt supersedes it, and none
// outlives the query, so a stalled shard holds one attempt at a time
// instead of MaxRetries+1.
func TestStalledShardAttemptsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stalled := &stalledBackend{}
	mp, err := NewMap([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New(mp, []Backend{stalled}, Config{MaxRetries: 3, AttemptTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.TopK(ctx, vec.MustQuery([]int{0}, []float64{1}), 1); err == nil {
		t.Fatal("topk over a stalled shard succeeded")
	}
	stalled.mu.Lock()
	defer stalled.mu.Unlock()
	if len(stalled.ctxs) != 4 {
		t.Fatalf("%d attempts, want 4", len(stalled.ctxs))
	}
	for i, done := range stalled.prevDone {
		if !done {
			t.Errorf("attempt %d entered while attempt %d was still live", i, i-1)
		}
	}
	for i, actx := range stalled.ctxs {
		if actx.Err() == nil {
			t.Errorf("attempt %d still live after the query returned", i)
		}
	}
}

// slowBackend answers TopK after a long stall unless its context ends
// first, and keeps that context.
type slowBackend struct {
	failingBackend
	ctx chan context.Context
}

func (s *slowBackend) TopK(ctx context.Context, _ vec.Query, _ int) ([]topk.Scored, error) {
	s.ctx <- ctx
	select {
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-time.After(3 * time.Second):
		return nil, nil
	}
}

// TestFailFastCancelsSiblings: the first shard to fail fails the query
// at once with its own error, cancels the shards still running, and only
// it counts as a fan-out error.
func TestFailFastCancelsSiblings(t *testing.T) {
	boom := errors.New("shard down")
	slow := &slowBackend{failingBackend: failingBackend{err: boom}, ctx: make(chan context.Context, 1)}
	mp, err := NewMap([]int{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := New(mp, []Backend{failingBackend{err: boom}, slow}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	errsBefore := mFanoutErrors.Value("topk")
	start := time.Now()
	_, err = coord.TopK(context.Background(), vec.MustQuery([]int{0}, []float64{1}), 1)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("failed query returned after %v, the sibling's stall", elapsed)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("topk error = %v, want wrapped %v", err, boom)
	}
	if sctx := <-slow.ctx; sctx.Err() != context.Canceled {
		t.Errorf("sibling's context: %v, want cancelled", sctx.Err())
	}
	if got := mFanoutErrors.Value("topk") - errsBefore; got != 1 {
		t.Errorf("fan-out errors grew by %d, want 1", got)
	}
}
