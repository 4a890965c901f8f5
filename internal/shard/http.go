// HTTP glue of the scatter-gather layer: a Backend that speaks to a
// shard's primary+standbys group over internal/client (so sharding
// composes with HA — the client follows redirects and fails over
// within the group), and the adapter that lets internal/server serve
// the coordinator behind the single-node surface.
package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/replication"
	"repro/internal/server"
	"repro/internal/topk"
	"repro/internal/vec"
)

// HTTPBackend drives one shard group over HTTP. C's seeds are the
// group's members; writes follow the client's primary routing.
type HTTPBackend struct {
	C *client.Client
}

// NewHTTPBackends builds one backend per shard group. groupSeeds[i]
// lists shard i's member base URLs (primary plus standbys, any order);
// base carries the shared client tuning (retries, timeouts) — its Seeds
// are ignored and its ID becomes a per-shard prefix.
func NewHTTPBackends(groupSeeds [][]string, base client.Config) ([]Backend, error) {
	backends := make([]Backend, len(groupSeeds))
	for i, seeds := range groupSeeds {
		cfg := base
		cfg.Seeds = seeds
		cfg.ID = fmt.Sprintf("%s-shard%d", base.ID, i)
		cl, err := client.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		backends[i] = HTTPBackend{C: cl}
	}
	return backends, nil
}

func (h HTTPBackend) TopK(ctx context.Context, q vec.Query, k int) ([]topk.Scored, error) {
	body, err := json.Marshal(server.QueryRequest{Dims: q.Dims, Weights: q.Weights, K: k})
	if err != nil {
		return nil, err
	}
	var resp server.ShardTopKResponse
	if err := h.C.PostJSON(ctx, "/shard/topk", body, &resp); err != nil {
		return nil, err
	}
	return resp.Result, nil
}

func (h HTTPBackend) AnalyzeImposed(ctx context.Context, q vec.Query, k, base int, imposed []topk.Scored, opts engine.Options) (*core.Output, []topk.Scored, error) {
	body, err := json.Marshal(server.ShardAnalyzeRequest{
		Dims:            q.Dims,
		Weights:         q.Weights,
		K:               k,
		Base:            base,
		Imposed:         imposed,
		Phi:             opts.Phi,
		Method:          server.MethodName(opts.Method),
		CompositionOnly: opts.CompositionOnly,
	})
	if err != nil {
		return nil, nil, err
	}
	var resp server.ShardAnalyzeResponse
	if err := h.C.PostJSON(ctx, "/shard/analyze", body, &resp); err != nil {
		return nil, nil, err
	}
	out := &core.Output{Query: q, K: k, Result: imposed, Metrics: resp.Metrics,
		Regions: server.FromRegionsJSON(resp.Regions)}
	return out, resp.Lines, nil
}

// Apply ships the batch as /update and /delete calls, splitting runs at
// kind boundaries (inserts and updates share /update; deletes need
// /delete) while preserving op order. Per-op engine errors come back as
// strings; they are surfaced as opaque errors in the same slots. Each
// call has the group client's time budget, within ctx.
func (h HTTPBackend) Apply(ctx context.Context, ops []engine.Op) (engine.ApplyResult, error) {
	res := engine.ApplyResult{Results: make([]engine.OpResult, len(ops))}
	for start := 0; start < len(ops); {
		del := ops[start].Kind == engine.OpDelete
		end := start + 1
		for end < len(ops) && (ops[end].Kind == engine.OpDelete) == del {
			end++
		}
		var body []byte
		var err error
		path := "/update"
		if del {
			path = "/delete"
			req := server.DeleteRequest{}
			for _, op := range ops[start:end] {
				req.IDs = append(req.IDs, op.ID)
			}
			body, err = json.Marshal(req)
		} else {
			req := server.UpdateRequest{}
			for _, op := range ops[start:end] {
				oj := server.UpdateOpJSON{Tuple: op.Tuple}
				if op.Kind == engine.OpUpdate {
					id := op.ID
					oj.ID = &id
				}
				req.Ops = append(req.Ops, oj)
			}
			body, err = json.Marshal(req)
		}
		if err != nil {
			return res, err
		}
		var resp server.MutateResponse
		if err := h.C.PostJSON(ctx, path, body, &resp); err != nil {
			return res, err
		}
		if len(resp.Results) != end-start {
			return res, fmt.Errorf("shard: %s returned %d results for %d ops", path, len(resp.Results), end-start)
		}
		for j, or := range resp.Results {
			r := engine.OpResult{ID: or.ID}
			if or.Error != "" {
				r.Err = errors.New(or.Error)
			}
			res.Results[start+j] = r
		}
		res.Applied += resp.Applied
		res.CacheChecked += resp.CacheChecked
		res.CacheEvicted += resp.CacheEvicted
		res.CacheSurvived += resp.CacheSurvived
		start = end
	}
	return res, nil
}

// SelfBeacon is the GET /cluster document a STANDALONE shard server
// advertises: a confirmed, ready, single-member primary. It makes a
// bare shard routable by internal/client — the same discovery path an
// HA shard group uses — so sharding composes with both deployments.
// The result is a server.Config's ClusterInfo.
func SelfBeacon(nodeID, httpAddr string) func() any {
	ci := replication.ClusterInfo{
		NodeID:      nodeID,
		Role:        string(replication.RolePrimary),
		Confirmed:   true,
		Ready:       true,
		HTTPAddr:    httpAddr,
		PrimaryHTTP: httpAddr,
	}
	return func() any { return ci }
}

// NewHandler exposes the coordinator behind the single-node surface —
// internal/server's routes, validation, status mapping, middleware and
// slow log — so existing clients work unchanged against a sharded
// deployment. A shard that does not answer is a 502; /stats has no
// engine blocks and the batch routes fan out per item.
func NewHandler(c *Coordinator) http.Handler {
	return server.New(server.Config{
		Querier:   func() server.Querier { return querier{c} },
		SlowQuery: server.DefaultSlowQuery,
	}).Handler()
}

// querier adapts the coordinator to server.Querier.
type querier struct{ c *Coordinator }

// upstream tags a failure that is not the client's fault as a shard
// not answering (server.ErrUpstream, 502). engine.ErrInvalid passes
// through and keeps its 400, and a shard's own 400 over HTTP is that
// same verdict on the same request, so it becomes ErrInvalid again.
func upstream(err error) error {
	if err == nil || errors.Is(err, engine.ErrInvalid) {
		return err
	}
	var se *client.StatusError
	if errors.As(err, &se) && se.Code == http.StatusBadRequest {
		return fmt.Errorf("%w: %w", engine.ErrInvalid, err)
	}
	return fmt.Errorf("%w: %w", server.ErrUpstream, err)
}

func (a querier) TopKMetered(ctx context.Context, q vec.Query, k int) ([]topk.Scored, engine.TopKInfo, error) {
	res, err := a.c.TopK(ctx, q, k)
	if err != nil {
		return nil, engine.TopKInfo{}, upstream(err)
	}
	return res, engine.TopKInfo{Source: engine.SourceMerged}, nil
}

func (a querier) Analyze(ctx context.Context, q vec.Query, k int, opts engine.Options) (*engine.Analysis, error) {
	an, err := a.c.Analyze(ctx, q, k, opts)
	if err != nil {
		return nil, upstream(err)
	}
	return &engine.Analysis{Output: an.Output, Source: engine.SourceMerged}, nil
}

// TopKBatch and AnalyzeBatch answer item by item, each a fan-out of
// its own: the fused same-subspace scan of a single node's /batchtopk is
// an optimisation the coordinator does not reach for.
func (a querier) TopKBatch(ctx context.Context, items []engine.TopKItem) []engine.TopKResult {
	out := make([]engine.TopKResult, len(items))
	for i, it := range items {
		res, info, err := a.TopKMetered(ctx, it.Q, it.K)
		out[i] = engine.TopKResult{Result: res, Source: info.Source, Err: err}
	}
	return out
}

func (a querier) AnalyzeBatch(ctx context.Context, items []engine.BatchItem) []engine.BatchResult {
	out := make([]engine.BatchResult, len(items))
	for i, it := range items {
		out[i].Analysis, out[i].Err = a.Analyze(ctx, it.Q, it.K, it.Opts)
	}
	return out
}

// Mutable is always true: a read-only shard refuses its own writes.
func (a querier) Mutable() bool { return true }

func (a querier) ApplyContext(ctx context.Context, ops []engine.Op) (engine.ApplyResult, error) {
	res, err := a.c.Apply(ctx, ops)
	return res, upstream(err)
}
