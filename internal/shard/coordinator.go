package shard

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topk"
	"repro/internal/vec"
)

// Config sets nothing that takes effect: each shard RPC is one call, and
// the group client's loop (internal/client) is the only retry policy.
type Config struct {
	// MaxRetries does nothing; it stays for bench/ladder.go:590, which
	// sets it; ROADMAP item 3 removes it.
	MaxRetries int
}

// Coordinator fans queries out to the shard backends in parallel and
// merges the answers. A query fails closed: a shard whose RPC fails
// after its group client's retries fails the whole query, since a merge
// without it is no certificate. Safe for concurrent use; mutation
// batches serialize against each other (insert-id assignment must be
// ordered) but not against reads.
type Coordinator struct {
	m        Map
	backends []Backend

	// applyTurn holds a token while a batch is being applied; a batch
	// waits for its turn under its own context.
	applyTurn chan struct{}
}

// New builds a coordinator over one backend per Map range.
func New(m Map, backends []Backend, _ Config) (*Coordinator, error) {
	if len(backends) != m.NumShards() {
		return nil, fmt.Errorf("shard: %d backends for %d ranges", len(backends), m.NumShards())
	}
	return &Coordinator{m: m, backends: backends, applyTurn: make(chan struct{}, 1)}, nil
}

// fanout runs call against every shard in parallel, once per shard;
// vals[i] is shard i's answer. Any failure fails the whole query: the
// first shard to fail cancels its siblings, and its error is the one
// returned. fanout waits for every call, so no attempt outlives it.
func (c *Coordinator) fanout(ctx context.Context, op string, call func(ctx context.Context, i int) (any, error)) ([]any, error) {
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	vals := make([]any, len(c.backends))
	first := make(chan error, 1)
	var wg sync.WaitGroup
	for i := range c.backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			//lint:allow obsreg op is one of the three fan-out verbs (topk, analyze, apply), a closed set
			mFanout.Inc(op)
			v, err := call(fctx, i)
			if err == nil {
				vals[i] = v
				return
			}
			if fctx.Err() != nil && ctx.Err() == nil {
				return // cancelled because a sibling already failed
			}
			//lint:allow obsreg op is one of the three fan-out verbs (topk, analyze, apply), a closed set
			mFanoutErrors.Inc(op)
			select {
			case first <- fmt.Errorf("shard %d: %s: %w", i, op, err):
				cancel()
			default:
			}
		}(i)
	}
	wg.Wait()
	select {
	case err := <-first:
		return nil, err
	default:
		return vals, nil
	}
}

// TopK scatter-gathers the query and heap-merges the per-shard lists
// into the global top-k under global ids — bit-identical in ids,
// scores and order to a single-node engine over the union.
func (c *Coordinator) TopK(ctx context.Context, q vec.Query, k int) ([]topk.Scored, error) {
	lists, err := c.topkFanout(ctx, q, k)
	if err != nil {
		return nil, err
	}
	return mergeTopK(lists, k), nil
}

// topkFanout is round 1 of both TopK and Analyze: per-shard top-k lists
// translated to global ids.
func (c *Coordinator) topkFanout(ctx context.Context, q vec.Query, k int) ([][]topk.Scored, error) {
	vals, err := c.fanout(ctx, "topk", func(ctx context.Context, i int) (any, error) {
		return c.backends[i].TopK(ctx, q, k)
	})
	if err != nil {
		return nil, err
	}
	lists := make([][]topk.Scored, len(vals))
	for i, v := range vals {
		local := v.([]topk.Scored)
		base := c.m.Base(i)
		global := make([]topk.Scored, len(local))
		for j, sc := range local {
			sc.ID += base
			global[j] = sc
		}
		lists[i] = global
	}
	return lists, nil
}

// Analysis is a merged immutable-region answer. The embedded Output
// carries the global result and regions; Metrics sums the shards' work.
// It stays a type of its own, not a bare *core.Output, for
// bench/ladder.go, which names it and may not change before ROADMAP.md
// item 3 removes it.
type Analysis struct {
	*core.Output
}

// Analyze computes the global top-k and its immutable regions in two
// network rounds: merge the per-shard top-k lists into the global
// result R, then fan R back out so every shard reports the constraints
// its own tuples impose on it, and merge those — the first of the
// per-dimension bounds on the classic φ = 0 path, an exact event replay
// of the union of shard-contributed lines on the envelope paths. Both
// merges are bit-identical to a single-node Analyze over the union of
// the shards' tuples, with one exception at φ = 0: when two shards'
// first crossings are distinct but round to one float64, the bound is
// the same but the merge names the smaller ids, not the earlier
// crossing's, as it holds neither line. docs/sharding.md ("Regions at
// φ = 0") gives the argument.
func (c *Coordinator) Analyze(ctx context.Context, q vec.Query, k int, opts engine.Options) (*Analysis, error) {
	lists, err := c.topkFanout(ctx, q, k)
	if err != nil {
		return nil, err
	}
	res := mergeTopK(lists, k)

	type shardAnswer struct {
		out   *core.Output
		lines []topk.Scored
	}
	vals, err := c.fanout(ctx, "analyze", func(ctx context.Context, i int) (any, error) {
		out, lines, err := c.backends[i].AnalyzeImposed(ctx, q, k, c.m.Base(i), res, opts)
		if err != nil {
			return nil, err
		}
		return shardAnswer{out: out, lines: lines}, nil
	})
	if err != nil {
		return nil, err
	}

	outs := make([]*core.Output, len(vals))
	var lines []topk.Scored
	for i, v := range vals {
		ans := v.(shardAnswer)
		outs[i] = ans.out
		lines = append(lines, ans.lines...)
	}

	regions, err := mergeRegions(q, k, res, outs, lines, opts)
	if err != nil {
		return nil, err
	}
	out := &core.Output{
		Query:   q,
		K:       k,
		Result:  res,
		Regions: regions,
		Metrics: mergeMetrics(outs),
	}
	return &Analysis{Output: out}, nil
}

// Apply routes a mutation batch to the owning shards: inserts go to the
// last shard — whose open id range continues the union's numbering, so
// the minted global ids equal a single node's — updates and deletes to
// the range owner. Runs of consecutive same-shard ops stay one batch,
// preserving in-shard order; results come back under global ids.
// The coordinator sends each sub-batch once and fails closed on the
// first shard error. Over HTTP the group client may resend a write
// after a transport error or a plain 503, so delivery is at-least-once
// (see internal/client). ctx bounds the wait for this batch's turn and
// every call it makes: once it ends, no further sub-batch is sent.
func (c *Coordinator) Apply(ctx context.Context, ops []engine.Op) (engine.ApplyResult, error) {
	select {
	case c.applyTurn <- struct{}{}:
		defer func() { <-c.applyTurn }()
	case <-ctx.Done():
		return engine.ApplyResult{}, fmt.Errorf("shard: apply: %w", ctx.Err())
	}
	res := engine.ApplyResult{Results: make([]engine.OpResult, len(ops))}
	for start := 0; start < len(ops); {
		shard := c.target(ops[start])
		end := start + 1
		for end < len(ops) && c.target(ops[end]) == shard {
			end++
		}
		mFanout.Inc("apply")
		base := c.m.Base(shard)
		local := make([]engine.Op, end-start)
		for j, op := range ops[start:end] {
			if op.Kind != engine.OpInsert {
				op.ID -= base
			}
			local[j] = op
		}
		sr, err := c.backends[shard].Apply(ctx, local)
		if err != nil {
			mFanoutErrors.Inc("apply")
			return res, fmt.Errorf("shard %d: apply: %w", shard, err)
		}
		for j, r := range sr.Results {
			if r.Err == nil {
				r.ID += base
			}
			res.Results[start+j] = r
		}
		res.Applied += sr.Applied
		res.CacheChecked += sr.CacheChecked
		res.CacheEvicted += sr.CacheEvicted
		res.CacheSurvived += sr.CacheSurvived
		start = end
	}
	return res, nil
}

// target returns the shard an op routes to.
func (c *Coordinator) target(op engine.Op) int {
	if op.Kind == engine.OpInsert {
		return c.m.NumShards() - 1
	}
	return c.m.Owner(op.ID)
}
