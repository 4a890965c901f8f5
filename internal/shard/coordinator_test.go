package shard

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fixture"
	"repro/internal/topk"
	"repro/internal/vec"
)

// failingBackend fails every RPC.
type failingBackend struct{ err error }

func (f failingBackend) TopK(context.Context, vec.Query, int) ([]topk.Scored, error) {
	return nil, f.err
}
func (f failingBackend) AnalyzeImposed(context.Context, vec.Query, int, int, []topk.Scored, engine.Options) (*core.Output, []topk.Scored, error) {
	return nil, nil, f.err
}
func (f failingBackend) Apply(context.Context, []engine.Op) (engine.ApplyResult, error) {
	return engine.ApplyResult{}, f.err
}

// TestFailClosed pins the shard-failure posture: any shard failing its
// RPC fails the whole query with the shard named, for reads and for
// mutations alike.
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
	if _, err := coord.Apply(ctx, []engine.Op{{Kind: engine.OpDelete, ID: coord.m.Base(2)}}); !errors.Is(err, boom) {
		t.Fatalf("apply error = %v, want wrapped %v", err, boom)
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
