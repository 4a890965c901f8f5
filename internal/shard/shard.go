// Package shard is the scatter-gather layer over the single-node
// engine: a dataset partitioned by tuple-id range across independent
// shard engines, a coordinator that fans queries out and merges the
// answers, and a merge that is bit-identical to a single node over the
// union.
//
// The partition is by id range — shard i owns global ids
// [Bases[i], Bases[i+1]), the last shard open-ended — and every shard
// holds ALL dimensions of its tuples, so per-shard TA scans and region
// computations need no cross-shard I/O. Top-k merges by (score desc,
// id asc), the same total order internal/topk maintains. Immutable
// regions merge in two rounds: the coordinator first merges the global
// result R, then asks every shard for the constraints its own tuples
// impose on R (engine.AnalyzeImposed over core.WithImposed); at φ = 0
// the per-dimension bounds combine by strict min/max and no lines
// travel; at φ > 0 every shard also ships its lines that can reach
// R's k-th envelope and the coordinator replays their union through
// core.ReplayRegions. docs/sharding.md carries the correctness
// argument; TestShardedBitIdentical machine-checks it.
package shard

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topk"
	"repro/internal/vec"
)

// Map is the id-range partition: Bases[i] is the first global id of
// shard i. Bases must be ascending and start at 0; the last shard's
// range is open-ended, which is what routes inserts (and the ids they
// mint) without remapping.
type Map struct {
	Bases []int
}

// NewMap validates the partition starts.
func NewMap(bases []int) (Map, error) {
	if len(bases) == 0 || bases[0] != 0 {
		return Map{}, fmt.Errorf("shard: bases must start at 0, have %v", bases)
	}
	for i := 1; i < len(bases); i++ {
		if bases[i] < bases[i-1] {
			return Map{}, fmt.Errorf("shard: bases not ascending: %v", bases)
		}
	}
	return Map{Bases: bases}, nil
}

// EvenBases splits n tuples into the given number of near-equal
// contiguous ranges — the partition cmd/irgen -shards writes.
func EvenBases(n, shards int) []int {
	bases := make([]int, shards)
	for i := range bases {
		bases[i] = i * n / shards
	}
	return bases
}

// NumShards returns the shard count.
func (m Map) NumShards() int { return len(m.Bases) }

// Base returns shard i's first global id.
func (m Map) Base(i int) int { return m.Bases[i] }

// Owner returns the shard owning global id gid. Ids at or past the last
// base — including ids minted by inserts — belong to the last shard.
func (m Map) Owner(gid int) int {
	return sort.Search(len(m.Bases), func(i int) bool { return m.Bases[i] > gid }) - 1
}

// Backend is one shard's query surface as the coordinator sees it. The
// local implementation wraps an *engine.Engine directly; the HTTP one
// speaks to a primary+standbys group through internal/client, which is
// how sharding composes with HA (a shard is just a replication group).
type Backend interface {
	// TopK returns the shard-local top-k in (score desc, id asc) order
	// with subspace projections filled, under LOCAL ids.
	TopK(ctx context.Context, q vec.Query, k int) ([]topk.Scored, error)
	// AnalyzeImposed computes the region constraints the shard's tuples
	// impose on the coordinator-merged result (global ids in and out),
	// and, when opts take the envelope path, the shard's lines the
	// coordinator's replay can use.
	AnalyzeImposed(ctx context.Context, q vec.Query, k, base int, imposed []topk.Scored, opts engine.Options) (*core.Output, []topk.Scored, error)
	// Apply applies a mutation batch under LOCAL ids. ctx bounds the
	// wait to send it, not a batch a shard has already logged.
	Apply(ctx context.Context, ops []engine.Op) (engine.ApplyResult, error)
}

// Local adapts an in-process engine to the Backend surface — the
// multi-shard test mode, and the building block of single-binary
// deployments.
type Local struct {
	E *engine.Engine
}

func (l Local) TopK(ctx context.Context, q vec.Query, k int) ([]topk.Scored, error) {
	res, _, err := l.E.TopKMetered(ctx, q, k)
	return res, err
}

func (l Local) AnalyzeImposed(ctx context.Context, q vec.Query, k, base int, imposed []topk.Scored, opts engine.Options) (*core.Output, []topk.Scored, error) {
	return l.E.AnalyzeImposed(ctx, q, k, base, imposed, opts)
}

func (l Local) Apply(ctx context.Context, ops []engine.Op) (engine.ApplyResult, error) {
	return l.E.ApplyContext(ctx, ops)
}

// NewLocal range-partitions a dataset into the given number of
// in-memory shard engines and returns a coordinator over them — the
// local multi-shard mode the property suite compares against a
// single-node engine over the same tuples.
func NewLocal(tuples []vec.Sparse, m, shards int, ecfg engine.Config, ccfg Config) (*Coordinator, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: need at least one shard, have %d", shards)
	}
	bases := EvenBases(len(tuples), shards)
	engines, err := engine.NewLocalShards(tuples, m, bases, ecfg)
	if err != nil {
		return nil, err
	}
	backends := make([]Backend, len(engines))
	for i, e := range engines {
		backends[i] = Local{E: e}
	}
	mp, err := NewMap(bases)
	if err != nil {
		return nil, err
	}
	return New(mp, backends, ccfg)
}
