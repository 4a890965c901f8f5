package shard

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topk"
	"repro/internal/vec"
)

// Config tunes the coordinator's fan-out behavior. A query fails
// closed: a shard that does not answer within its retry budget fails
// the whole query, since a merge without it is no certificate.
type Config struct {
	// MaxRetries is how many times a read RPC is relaunched after a
	// per-attempt timeout or an error. Mutations never retry: Apply is
	// not idempotent, so a timed-out write fails closed immediately.
	MaxRetries int
	// AttemptTimeout bounds each read attempt; a lapsed attempt is
	// cancelled and superseded, and an answer it still sends is
	// discarded by the generation guard. Zero means attempts are
	// bounded only by the caller's context.
	AttemptTimeout time.Duration
}

// Coordinator fans queries out to the shard backends in parallel and
// merges the answers. Safe for concurrent use; mutation batches
// serialize against each other (insert-id assignment must be ordered)
// but not against reads.
type Coordinator struct {
	m        Map
	backends []Backend
	cfg      Config

	applyMu sync.Mutex
}

// New builds a coordinator over one backend per Map range.
func New(m Map, backends []Backend, cfg Config) (*Coordinator, error) {
	if len(backends) != m.NumShards() {
		return nil, fmt.Errorf("shard: %d backends for %d ranges", len(backends), m.NumShards())
	}
	return &Coordinator{m: m, backends: backends, cfg: cfg}, nil
}

// reply carries one attempt's answer back to the fan-out slot.
type reply struct {
	gen int
	val any
	err error
}

// callShard runs one shard's read RPC with the retry and
// attempt-generation discipline: at most one answer is ever returned,
// and only from the LATEST attempt. Each attempt runs under its own
// context, cancelled once the attempt can no longer count: when a newer
// attempt supersedes it, and when callShard returns. A backend that
// ignores the cancellation may still answer; the generation guard
// drops that answer rather than merge it — neither twice (double-count)
// nor at all: between the attempts a mutation may have committed, and
// the stale answer could resurrect a tombstoned tuple into the merge
// (the lists.Overlay hazard; see TestRetryNoDoubleMerge).
func (c *Coordinator) callShard(ctx context.Context, op string, i int, call func(context.Context) (any, error)) (any, error) {
	attempts := c.cfg.MaxRetries + 1
	ch := make(chan reply, attempts) // buffered: stale attempts never block
	gen := -1
	var actx context.Context
	cancel := context.CancelFunc(func() {})
	defer func() { cancel() }()
	launch := func() {
		cancel()
		if c.cfg.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
		} else {
			actx, cancel = context.WithCancel(ctx)
		}
		gen++
		//lint:allow obsreg op is one of the three fan-out verbs (topk, analyze, apply), a closed set
		mFanout.Inc(op)
		go func(ctx context.Context, gen int) {
			v, err := call(ctx)
			ch <- reply{gen: gen, val: v, err: err}
		}(actx, gen)
	}

	launch()
	for {
		var err error
		select {
		case r := <-ch:
			if r.gen != gen {
				// A superseded attempt answered after all. Its view may
				// predate mutations the fresh attempt saw; drop it. Its
				// error, most likely its own cancellation, is no answer.
				if r.err == nil {
					mStaleDrops.Inc()
				}
				continue
			}
			if r.err == nil {
				return r.val, nil
			}
			err = r.err
		case <-actx.Done():
			if err = ctx.Err(); err == nil {
				err = fmt.Errorf("attempt timed out after %v", c.cfg.AttemptTimeout)
			}
		}
		if gen+1 == attempts || ctx.Err() != nil {
			return nil, fmt.Errorf("shard %d: %s: %w", i, op, err)
		}
		mRetries.Inc()
		launch()
	}
}

// fanout runs call against every shard in parallel; vals[i] is shard
// i's answer. Any failure fails the whole query: the first shard to
// exhaust its budget cancels its siblings, and its error is the one
// returned.
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
			v, err := c.callShard(fctx, op, i, func(ctx context.Context) (any, error) {
				return call(ctx, i)
			})
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
			case first <- err:
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
// its own tuples impose on it, and merge those — strict min/max of the
// per-dimension bounds on the classic φ = 0 path, an exact event replay
// of the union of shard-contributed lines on the envelope paths. Both
// merges are bit-identical to a single-node Analyze over the union of
// the shards' tuples; docs/sharding.md gives the argument.
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

	out := &core.Output{
		Query:   q,
		K:       k,
		Result:  res,
		Regions: mergeRegions(q, k, res, outs, lines, opts),
		Metrics: mergeMetrics(outs),
	}
	return &Analysis{Output: out}, nil
}

// Apply routes a mutation batch to the owning shards: inserts go to the
// last shard — whose open id range continues the union's numbering, so
// the minted global ids equal a single node's — updates and deletes to
// the range owner. Runs of consecutive same-shard ops stay one batch,
// preserving in-shard order; results come back under global ids.
// Mutations never retry (a timed-out insert retried could apply twice)
// and fail closed on the first shard error.
func (c *Coordinator) Apply(ops []engine.Op) (engine.ApplyResult, error) {
	c.applyMu.Lock()
	defer c.applyMu.Unlock()
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
		sr, err := c.backends[shard].Apply(local)
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
