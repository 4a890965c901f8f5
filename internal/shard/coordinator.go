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

// Config tunes the coordinator's fan-out behavior.
type Config struct {
	// AllowPartial merges the surviving shards' answers when one or more
	// shards fail, flagging the result as Partial, instead of failing
	// closed. A partial /topk may miss result tuples; a partial /analyze
	// region is NOT a certificate (the missing shard's constraints are
	// absent) — which is why closed is the default.
	AllowPartial bool
	// MaxRetries is how many times a read RPC is relaunched after a
	// per-attempt timeout or an error. Mutations never retry: Apply is
	// not idempotent, so a timed-out write fails closed immediately.
	MaxRetries int
	// AttemptTimeout bounds each read attempt; a lapsed attempt is
	// superseded, its late answer discarded by the generation guard.
	// Zero means attempts are bounded only by the caller's context.
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
// and only from the LATEST attempt. A retried call after a timeout must
// not merge the first attempt's answer — neither twice (double-count)
// nor at all: between the attempts a mutation may have committed, and
// the stale answer could resurrect a tombstoned tuple into the merge
// (the lists.Overlay hazard; see TestRetryNoDoubleMerge).
func (c *Coordinator) callShard(ctx context.Context, op string, i int, call func(context.Context) (any, error)) (any, error) {
	attempts := c.cfg.MaxRetries + 1
	ch := make(chan reply, attempts) // buffered: stale attempts never block
	launch := func(gen int) {
		//lint:allow obsreg op is one of the three fan-out verbs (topk, analyze, apply), a closed set
		mFanout.Inc(op)
		go func() {
			v, err := call(ctx)
			ch <- reply{gen: gen, val: v, err: err}
		}()
	}

	gen := 0
	launch(gen)
	var timer *time.Timer
	var timeout <-chan time.Time // nil: blocks forever
	arm := func() {
		if c.cfg.AttemptTimeout <= 0 {
			return
		}
		if timer == nil {
			timer = time.NewTimer(c.cfg.AttemptTimeout)
		} else {
			timer.Reset(c.cfg.AttemptTimeout)
		}
		timeout = timer.C
	}
	arm()
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()

	for {
		select {
		case r := <-ch:
			if r.gen != gen {
				// A superseded attempt finally answered. Its view may
				// predate mutations the fresh attempt saw; drop it.
				mStaleDrops.Inc()
				continue
			}
			if r.err != nil {
				if gen+1 < attempts && ctx.Err() == nil {
					gen++
					mRetries.Inc()
					launch(gen)
					arm()
					continue
				}
				//lint:allow obsreg op is one of the three fan-out verbs (topk, analyze, apply), a closed set
				mFanoutErrors.Inc(op)
				return nil, fmt.Errorf("shard %d: %s: %w", i, op, r.err)
			}
			return r.val, nil
		case <-timeout:
			if gen+1 < attempts {
				gen++
				mRetries.Inc()
				launch(gen)
				arm()
				continue
			}
			//lint:allow obsreg op is one of the three fan-out verbs (topk, analyze, apply), a closed set
			mFanoutErrors.Inc(op)
			return nil, fmt.Errorf("shard %d: %s: attempt timed out after %v", i, op, c.cfg.AttemptTimeout)
		case <-ctx.Done():
			//lint:allow obsreg op is one of the three fan-out verbs (topk, analyze, apply), a closed set
			mFanoutErrors.Inc(op)
			return nil, fmt.Errorf("shard %d: %s: %w", i, op, ctx.Err())
		}
	}
}

// fanout runs call against every shard in parallel. vals[i] is shard
// i's answer; failed lists the shards that exhausted their budget. With
// AllowPartial unset any failure fails the whole query (fail closed).
func (c *Coordinator) fanout(ctx context.Context, op string, call func(ctx context.Context, i int) (any, error)) (vals []any, failed []int, err error) {
	vals = make([]any, len(c.backends))
	errs := make([]error, len(c.backends))
	var wg sync.WaitGroup
	for i := range c.backends {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], errs[i] = c.callShard(ctx, op, i, func(ctx context.Context) (any, error) {
				return call(ctx, i)
			})
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != nil {
			failed = append(failed, i)
			err = e
		}
	}
	if err != nil {
		if !c.cfg.AllowPartial {
			return nil, failed, err
		}
		mPartial.Inc()
	}
	return vals, failed, nil
}

// TopKResult is a merged top-k answer. Partial is only ever true under
// AllowPartial; Failed lists the shards whose answers are missing.
type TopKResult struct {
	Result  []topk.Scored
	Partial bool
	Failed  []int
}

// TopK scatter-gathers the query and heap-merges the per-shard lists
// into the global top-k under global ids — bit-identical in ids,
// scores and order to a single-node engine over the union.
func (c *Coordinator) TopK(ctx context.Context, q vec.Query, k int) (*TopKResult, error) {
	lists, failed, err := c.topkFanout(ctx, q, k)
	if err != nil {
		return nil, err
	}
	return &TopKResult{
		Result:  mergeTopK(lists, k),
		Partial: len(failed) > 0,
		Failed:  failed,
	}, nil
}

// topkFanout is round 1 of both TopK and Analyze: per-shard top-k lists
// translated to global ids (nil for failed shards under AllowPartial).
func (c *Coordinator) topkFanout(ctx context.Context, q vec.Query, k int) ([][]topk.Scored, []int, error) {
	vals, failed, err := c.fanout(ctx, "topk", func(ctx context.Context, i int) (any, error) {
		return c.backends[i].TopK(ctx, q, k)
	})
	if err != nil {
		return nil, failed, err
	}
	lists := make([][]topk.Scored, len(vals))
	for i, v := range vals {
		if v == nil {
			continue
		}
		local := v.([]topk.Scored)
		base := c.m.Base(i)
		global := make([]topk.Scored, len(local))
		for j, sc := range local {
			sc.ID += base
			global[j] = sc
		}
		lists[i] = global
	}
	return lists, failed, nil
}

// Analysis is a merged immutable-region answer. The embedded Output
// carries the global result and regions; Metrics sums the shards' work.
// A Partial analysis is NOT a certificate — the failed shards'
// constraints are missing, so the region is an over-approximation.
type Analysis struct {
	*core.Output
	Partial bool
	Failed  []int
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
	lists, failedTopK, err := c.topkFanout(ctx, q, k)
	if err != nil {
		return nil, err
	}
	res := mergeTopK(lists, k)

	type shardAnswer struct {
		out   *core.Output
		lines []topk.Scored
	}
	vals, failedAn, err := c.fanout(ctx, "analyze", func(ctx context.Context, i int) (any, error) {
		if lists[i] == nil && len(failedTopK) > 0 {
			// The shard already failed round 1; its round-2 constraints
			// would certify a result merged without its tuples anyway.
			return nil, fmt.Errorf("skipped after top-k failure")
		}
		out, lines, err := c.backends[i].AnalyzeImposed(ctx, q, k, c.m.Base(i), res, opts)
		if err != nil {
			return nil, err
		}
		return shardAnswer{out: out, lines: lines}, nil
	})
	if err != nil {
		return nil, err
	}

	failed := mergeFailed(failedTopK, failedAn)
	var outs []*core.Output
	var lines []topk.Scored
	for _, v := range vals {
		if v == nil {
			continue
		}
		ans := v.(shardAnswer)
		outs = append(outs, ans.out)
		lines = append(lines, ans.lines...)
	}
	if len(outs) == 0 {
		return nil, fmt.Errorf("shard: no shard answered")
	}

	out := &core.Output{
		Query:   q,
		K:       k,
		Result:  res,
		Regions: mergeRegions(q, k, res, outs, lines, opts),
		Metrics: mergeMetrics(outs),
	}
	return &Analysis{Output: out, Partial: len(failed) > 0, Failed: failed}, nil
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

// mergeFailed unions two ascending failed-shard lists.
func mergeFailed(a, b []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, l := range [2][]int{a, b} {
		for _, i := range l {
			if !seen[i] {
				seen[i] = true
				out = append(out, i)
			}
		}
	}
	return out
}
