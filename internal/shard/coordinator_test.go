package shard

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"strings"
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

// invertedBackend answers round 2 as its shard does, then swaps one
// dimension's φ = 0 bounds, as a shard answering over data that changed
// between the rounds might.
type invertedBackend struct{ Backend }

func (b invertedBackend) AnalyzeImposed(ctx context.Context, q vec.Query, k, base int, imposed []topk.Scored, opts engine.Options) (*core.Output, []topk.Scored, error) {
	out, lines, err := b.Backend.AnalyzeImposed(ctx, q, k, base, imposed, opts)
	if err == nil {
		r := &out.Regions[0]
		r.Lo, r.Hi = 0.2, 0.1
	}
	return out, lines, err
}

// TestImpossibleRegionFailsClosed: a merged region that excludes its
// own query is refused, a 502 at the front, never served.
func TestImpossibleRegionFailsClosed(t *testing.T) {
	cs := fixture.RandCase(rand.New(rand.NewSource(4205)), 40, 6, 2, 3)
	coord := localCoord(t, cs.Tuples, cs.M, 2, Config{})
	coord.backends[1] = invertedBackend{coord.backends[1]}
	if _, err := coord.Analyze(context.Background(), cs.Q, cs.K, engine.Options{}); err == nil || !strings.Contains(err.Error(), "excludes its query") {
		t.Fatalf("analyze error = %v, want the inverted region refused", err)
	}
	w := call(NewHandler(coord), http.MethodPost, "/analyze", mustJSON(t, map[string]any{"dims": cs.Q.Dims, "weights": cs.Q.Weights, "k": cs.K}))
	if w.Code != http.StatusBadGateway {
		t.Fatalf("/analyze: %d %s, want 502", w.Code, w.Body)
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
