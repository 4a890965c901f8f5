// Shard-side execution surface of the scatter-gather deployment
// (internal/shard, docs/sharding.md). A shard engine is an ordinary
// Engine over the shard's own id-renumbered dataset; what this file
// adds is the second round of a distributed analysis — computing the
// region constraints this shard's tuples impose on a coordinator-merged
// global result — plus the openers for range-partitioned datasets.
package engine

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/lists"
	"repro/internal/topk"
	"repro/internal/vec"
)

// lineContributor is the accessor core.WithImposed's runner exposes for
// the candidate lines the coordinator's replay can use.
type lineContributor interface {
	ContributedLines() (lines []topk.Scored, offered int)
}

// AnalyzeImposed computes the immutable-region constraints this
// engine's tuples impose on an externally merged global result. base is
// this shard's id offset (global id = base + local id); imposed is the
// coordinator's merged top-k under global ids, whose lines stand in for
// the local result throughout the region phases. The returned Output
// carries the shard's constraint regions (global ids everywhere). lines
// is the raw material of the coordinator's replay merge on the envelope
// paths (core.Options.Envelope): the shard's candidate lines that can
// reach the imposed result's k-th envelope. On the classic φ = 0
// path the coordinator merges the regions alone, so no lines are built
// or returned.
//
// Imposed analyses bypass the answer cache in both directions: the
// output certifies the imposed result, not a local answer, so it can
// neither be served from nor admitted to the cache. Every Phase-3 pull
// lands in the shared candidate list the contributed lines are selected
// from.
func (e *Engine) AnalyzeImposed(ctx context.Context, q vec.Query, k, base int, imposed []topk.Scored, opts Options) (out *core.Output, lines []topk.Scored, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	mQueries.Inc("analyze-imposed")
	if err = e.validate(q, k, opts.Phi); err != nil {
		return nil, nil, err
	}
	if err = checkImposed(imposed, k, q.Len()); err != nil {
		return nil, nil, err
	}
	err = e.run(ctx, func(ix lists.Index, _ time.Duration) error {
		out, lines, err = imposedLocked(ctx, ix, q, k, base, imposed, opts.Options)
		return err
	})
	return out, lines, err
}

// checkImposed rejects, as ErrInvalid, an imposed result the region
// phases cannot take for R: more than k entries, or one with other than
// qlen coordinates, a value not finite, an id seen before, or a rank
// (score descending, id ascending) not after the one before it.
func checkImposed(imposed []topk.Scored, k, qlen int) error {
	if len(imposed) > k {
		return fmt.Errorf("engine: imposed result has %d entries for k=%d: %w", len(imposed), k, ErrInvalid)
	}
	nonFinite := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	seen := make(map[int]bool, len(imposed))
	for i, sc := range imposed {
		if len(sc.Proj) != qlen || nonFinite(sc.Score) || slices.ContainsFunc(sc.Proj, nonFinite) ||
			seen[sc.ID] || i > 0 && topk.ByRank(imposed[i-1], sc) > 0 {
			return fmt.Errorf("engine: imposed entry %d (id %d, score %v, %d of %d coordinates) is not the next line of a ranked result: %w",
				i, sc.ID, sc.Score, len(sc.Proj), qlen, ErrInvalid)
		}
		seen[sc.ID] = true
	}
	return nil
}

func imposedLocked(ctx context.Context, ix lists.Index, q vec.Query, k, base int, imposed []topk.Scored, copts core.Options) (*core.Output, []topk.Scored, error) {
	ta := topk.New(ix, q, k, topk.BestList)
	runner := core.WithImposed(ta, base, imposed)
	defer runner.Release() // ta's too; out and the contributed lines are copies
	out, err := core.ComputeView(ctx, runner, copts)
	if err != nil {
		return nil, nil, err
	}
	observeCompute(out.Metrics.Phase1, out.Metrics.Phase2, out.Metrics.Phase3, ta.SortedAccesses())
	var lines []topk.Scored
	if copts.Envelope() {
		var offered int
		lines, offered = runner.(lineContributor).ContributedLines()
		mShardLinesOffered.Add(int64(offered))
		mShardLinesShipped.Add(int64(len(lines)))
	}
	return out, lines, nil
}

// ShardDirName returns the conventional subdirectory of shard i inside
// a range-partitioned dataset directory (cmd/irgen -shards).
func ShardDirName(i int) string { return fmt.Sprintf("shard-%d", i) }

// OpenShard opens shard i of a range-partitioned dataset directory —
// the layout cmd/irgen -shards writes: <dir>/shard-<i>/tuples.dat and
// lists.dat. poolPages does nothing: it stays for bench/ladder.go:576,
// which passes it; re-basing the benchmark (ROADMAP.md item 3) removes
// it.
func OpenShard(dir string, i, poolPages int, cfg Config) (*Engine, error) {
	sd := filepath.Join(dir, ShardDirName(i))
	return Open(filepath.Join(sd, "tuples.dat"), filepath.Join(sd, "lists.dat"), cfg)
}

// NewLocalShards partitions a dataset by id range and builds one
// in-memory engine per shard — the local multi-shard mode the property
// suite runs the coordinator against. bases are the ascending partition
// starts (bases[0] must be 0); shard i owns global ids
// [bases[i], bases[i+1]) and renumbers them from 0, with the last shard
// extending to len(tuples). m is the dataset dimensionality.
func NewLocalShards(tuples []vec.Sparse, m int, bases []int, cfg Config) ([]*Engine, error) {
	if len(bases) == 0 || bases[0] != 0 {
		return nil, fmt.Errorf("engine: shard bases must start at 0, have %v", bases)
	}
	engines := make([]*Engine, len(bases))
	for i := range bases {
		lo := bases[i]
		hi := len(tuples)
		if i+1 < len(bases) {
			hi = bases[i+1]
		}
		if lo > hi || hi > len(tuples) {
			return nil, fmt.Errorf("engine: shard %d range [%d,%d) outside dataset of %d", i, lo, hi, len(tuples))
		}
		engines[i] = New(lists.NewMemIndex(tuples[lo:hi], m), cfg)
	}
	return engines, nil
}
