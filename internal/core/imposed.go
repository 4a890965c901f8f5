package core

import (
	"context"
	"slices"

	"repro/internal/lists"
	"repro/internal/storage"
	"repro/internal/topk"
	"repro/internal/vec"
)

// This file is the shard-side and coordinator-side machinery of the
// scatter-gather deployment (docs/sharding.md). A dataset partitioned
// by id range answers a global analysis in two rounds: the coordinator
// first merges the per-shard top-k lists into the global result R, then
// asks every shard for the region constraints ITS tuples impose on that
// result. The shard computation is the unmodified pipeline of this
// package run over a translated view: Result() reports the imposed
// global lines, Ranking()/Resume() the shard's own rows — reported under
// their global ids (computer.idBase) — and the k-th result line may belong to
// another shard entirely — Lemma 1 and the §6 envelope only consume the
// line coefficients (score, coordinate), never the backing tuple, so
// the phases work unchanged.
//
// Correctness of the decomposition: the global immutable region is the
// set of deviations under which (a) no two result lines reorder and
// (b) no non-result line climbs above the k-th envelope. Constraint (a)
// is a function of R alone and is replayed identically by every shard
// (or by the coordinator); constraint (b) decomposes over the partition
// because every non-result tuple lives in exactly one shard and its
// line's crossings are pure functions of (score, coordinate) pairs that
// shard computes bit-identically to a single node. See
// docs/sharding.md for the full argument, and TestShardedBitIdentical
// for the machine-checked version.

// WithImposed wraps a shard-local Runner for an imposed-result region
// computation. base offsets the shard's local tuple ids into the global
// id space (global id = base + local id). imposed is the merged global
// result R, carrying global ids; result members owned by this shard are
// recognized by their id range and excluded from the candidate stream
// (a shard's local top-k always contains its global-result members, so
// they would otherwise be double-reported as candidates). Phase-3 pulls
// land in the shared candidate list ContributedLines selects from.
func WithImposed(r Runner, base int, imposed []topk.Scored) Runner {
	v := &imposedRunner{inner: r, base: base, imposed: imposed}
	for _, sc := range imposed {
		if local := sc.ID - base; local >= 0 && local < r.Index().NumTuples() {
			v.owned++
		}
	}
	return v
}

// imposedRunner translates a shard-local Runner into the global id
// space and substitutes the imposed result for the local one. The rows
// stay where the inner scan put them, under their local ids; the
// computation adds base wherever an id leaves the table.
type imposedRunner struct {
	inner   Runner
	base    int
	imposed []topk.Scored

	// order is the candidate view: the inner rank order — local result
	// first, then local candidates — minus imposed members, rebuilt when
	// the inner scan has grown (Resume only ever adds rows).
	order []int32
	rows  int
	owned int // imposed members in this shard's id range
}

func (v *imposedRunner) Query() vec.Query { return v.inner.Query() }
func (v *imposedRunner) K() int           { return v.inner.K() }

// Result returns the imposed global result, not the shard-local one.
func (v *imposedRunner) Result() []topk.Scored { return v.imposed }

// Table returns the shard's rows, under local ids.
func (v *imposedRunner) Table() *topk.Table { return v.inner.Table() }

// ownsImposed reports whether the given global id is an imposed result
// member (k is small, so a linear probe beats a map here).
func (v *imposedRunner) ownsImposed(gid int) bool {
	for i := range v.imposed {
		if v.imposed[i].ID == gid {
			return true
		}
	}
	return false
}

// Ranking returns every shard row that may constrain the imposed result
// — the local top-k members that did not make the global result, then
// the local candidate list — all of it C(q) (cut 0). The inner order
// already satisfies the decreasing-score contract: local result scores
// dominate local candidate scores.
func (v *imposedRunner) Ranking() ([]int32, int) {
	rows := v.inner.Table()
	if n := rows.Len(); n != v.rows {
		v.rows = n
		inner, _ := v.inner.Ranking()
		v.order = slices.Grow(v.order[:0], len(inner))
		// The members to drop sit among the first k: past the last of
		// them the rest of the order is taken as it stands.
		left := v.owned
		for i, p := range inner {
			if left == 0 {
				v.order = append(v.order, inner[i:]...)
				break
			}
			if v.ownsImposed(rows.ID(p) + v.base) {
				left--
				continue
			}
			v.order = append(v.order, p)
		}
	}
	return v.order, 0
}

// Resume pulls the shard scan. Imposed members can never surface here —
// they are in the local top-k, which the scan saw before terminating —
// but the filter guards the invariant anyway.
func (v *imposedRunner) Resume() (int32, bool) {
	for {
		p, ok := v.inner.Resume()
		if !ok {
			return 0, false
		}
		if !v.ownsImposed(v.inner.Table().ID(p) + v.base) {
			return p, true
		}
	}
}

func (v *imposedRunner) ThresholdsInto(dst []float64) { v.inner.ThresholdsInto(dst) }
func (v *imposedRunner) Err() error                   { return v.inner.Err() }

// WasSortedAccessed answers for shard-owned tuples only. A foreign id —
// typically the imposed d_k living on another shard — reports false,
// which makes Phase 3 keep the upper-bound resume active: conservative
// in work, exact in the produced region.
func (v *imposedRunner) WasSortedAccessed(i, id int, val float64) bool {
	local := id - v.base
	if local < 0 || local >= v.inner.Index().NumTuples() {
		return false
	}
	return v.inner.WasSortedAccessed(i, local, val)
}

func (v *imposedRunner) Index() lists.Index {
	return &offsetIndex{Index: v.inner.Index(), base: v.base}
}

func (v *imposedRunner) RunContext(ctx context.Context) error { return v.inner.RunContext(ctx) }

// ContributedLines returns the shard lines the coordinator's replay
// (ReplayRegions) can use, under global ids, and offered, the size of
// the candidate view after all phases ran (Phase-3 pulls included) they
// were selected from. A line is relevant iff it reaches E_R, the k-th
// envelope of the imposed result ALONE, somewhere on the 2·qlen axes of
// the weight domain (Domain(q).Reaches). Every boundary the replay
// builds contains R, so its envelope is ≥ E_R pointwise over a horizon
// inside the domain: a line that stays below E_R is rejected by every
// such boundary and, being rejected, leaves no trace in it. It must
// not use this shard's own boundaries instead: their horizons stop at
// entries the union's denser envelope never admits, so they reject
// lines the union needs (docs/sharding.md, TestShardLocalAcceptanceTrap).
// The lines are copies, so they stay valid after the inner run is released.
func (v *imposedRunner) ContributedLines() (lines []topk.Scored, offered int) {
	cands, _ := v.Ranking()
	if len(v.imposed) < v.K() {
		return nil, len(cands) // the replay answers the full domain unasked
	}
	q := v.Query()
	dom := Domain(q.Weights)
	rows := v.inner.Table()
	proj := make([]float64, q.Len())
	var kept []int32
	for _, p := range cands {
		for j := range proj {
			proj[j] = rows.Coord(p, j)
		}
		if dom.Reaches(v.imposed, rows.Score(p), proj) {
			kept = append(kept, p)
		}
	}
	return v.lines(kept), len(cands)
}

// lines materializes candidate rows under their global ids.
func (v *imposedRunner) lines(pos []int32) []topk.Scored {
	if pos == nil {
		return nil
	}
	out := v.inner.Table().Rows(pos)
	for i := range out {
		out[i].ID += v.base
	}
	return out
}

// offsetIndex presents a shard-local index under global tuple ids:
// both random accesses subtract the shard base, the cardinality covers
// the global id range [0, base+n), and sorted-access cursors translate
// posting ids on the way out.
type offsetIndex struct {
	lists.Index
	base int
}

func (o *offsetIndex) NumTuples() int          { return o.base + o.Index.NumTuples() }
func (o *offsetIndex) Tuple(id int) vec.Sparse { return o.Index.Tuple(id - o.base) }

func (o *offsetIndex) Project(id int, dims []int, dst []float64) error {
	return o.Index.Project(id-o.base, dims, dst)
}

func (o *offsetIndex) Cursor(dim int) lists.Cursor {
	return &offsetCursor{Cursor: o.Index.Cursor(dim), base: o.base}
}

func (o *offsetIndex) WithStats(st *storage.IOStats) lists.Index {
	return &offsetIndex{Index: o.Index.WithStats(st), base: o.base}
}

// offsetCursor translates posting ids of a shard-local cursor.
type offsetCursor struct {
	lists.Cursor
	base int
}

func (c *offsetCursor) Peek() (storage.Posting, bool) {
	p, ok := c.Cursor.Peek()
	p.ID += c.base
	return p, ok
}

func (c *offsetCursor) Next() (storage.Posting, bool) {
	p, ok := c.Cursor.Next()
	p.ID += c.base
	return p, ok
}

func (c *offsetCursor) Clone() lists.Cursor {
	return &offsetCursor{Cursor: c.Cursor.Clone(), base: c.base}
}

// ReplayRegions is the coordinator-side envelope-path merge: it reruns
// the §6 boundary machinery per dimension over the imposed result lines,
// offering every shard-contributed line. Because a line rejected by
// boundary.consider leaves the boundary untouched, any superset of the
// lines a single node's boundaries accept — the shards ship every line
// that reaches the result's own k-th envelope, see ContributedLines —
// yields exactly the arrangement, and therefore exactly the perturbation
// sequence, a single node computes over the union.
// k is the requested result size; len(res) < k degenerates to the full
// weight domain exactly as ComputeView's |R| < k branch does.
func ReplayRegions(q vec.Query, k int, res, extra []topk.Scored, opts Options) []Regions {
	out := make([]Regions, q.Len())
	for jx := range q.Dims {
		if len(res) < k {
			c := &computer{q: q, k: k}
			out[jx] = c.fullDomainRegions(jx)
			continue
		}
		qj := q.Weights[jx]
		right := newBoundary(res, jx, opts.Phi, 1-qj, false, opts.CompositionOnly)
		left := newBoundary(res, jx, opts.Phi, qj, true, opts.CompositionOnly)
		settle(right, left, func() {
			for _, sc := range extra {
				right.consider(sc.ID, sc.Score, sc.Proj[jx])
				left.consider(sc.ID, sc.Score, -sc.Proj[jx])
			}
		})
		out[jx] = assembleRegions(q.Dims[jx], jx, qj, right, left)
	}
	return out
}
