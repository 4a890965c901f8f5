// Fused multi-query TA: several queries over the SAME subspace (equal
// Dims) and the same k share one scan. Sorted accesses, the
// encountered-tuple bitset and the random-access tuple fetches are paid
// once for the whole group; only the scoring fans out, as one batched
// dot product (vec.DotBatch) over the flat member-weight matrix per
// encountered tuple. The scan is steered by the per-dimension MAXIMUM
// member weight and runs until every member's individual termination
// test (k-th tentative score ≥ that member's threshold S(t,q_m))
// passes, so each member's top-k carries the full TA guarantee.
//
// A member's view of the run is a valid terminated TA state for its
// query: the ranked result carries the full TA guarantee (tuples
// encountered after the member's own termination point were bounded by
// its threshold, so they rank below its k-th score), and the candidate
// list is exactly the shared scan's encounter set outside the top-k,
// scored with the member's weights. The encounter set follows the
// GROUP's probe trajectory, so it generally differs from what the
// member's solo scan would have collected — the same freedom the
// round-robin/best-list policy knob already exercises — and region
// computation, which is exact for any valid terminated state, produces
// identical regions either way (the engine's batch-vs-singles property
// test pins this end to end).
package topk

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/lists"
	"repro/internal/vec"
)

// Multi is a fused TA run over a group of same-subspace, same-k
// queries. Run/RunContext executes the shared scan; Member then hands
// out per-member resumable views for region computation.
type Multi struct {
	scan    scanState // q = {Dims, per-dim max weight}: probe steering only
	sc      *scratch  // pooled scan memory; nil once released
	queries []vec.Query
	flatW   []float64 // len(queries)×qlen member weight rows

	encountered []Scored  // shared: ID/Proj/NZMask; Score is per-member
	scores      []float64 // encounter-major: scores[e*len(queries)+m]
	heaps       [][]float64
	memDone     []bool

	results [][]Scored // memoized Result(i)
	done    bool
}

// NewMulti prepares a fused run. All queries must share the identical
// (sorted) dimension set; weights may differ freely. Panics mirror New:
// empty group, qlen > 64, k < 1, or a dimension-set mismatch.
func NewMulti(ix lists.Index, queries []vec.Query, k int, policy ProbePolicy) *Multi {
	if len(queries) == 0 {
		panic("topk: empty fused group")
	}
	base := queries[0]
	if base.Len() > 64 {
		panic(fmt.Sprintf("topk: qlen %d exceeds 64", base.Len()))
	}
	if k < 1 {
		panic(fmt.Sprintf("topk: k=%d", k))
	}
	qlen := base.Len()
	wmax := make([]float64, qlen)
	flatW := make([]float64, 0, len(queries)*qlen)
	for _, q := range queries {
		if !slices.Equal(q.Dims, base.Dims) {
			panic("topk: fused queries must share the dimension set")
		}
		for j, w := range q.Weights {
			if w > wmax[j] {
				wmax[j] = w
			}
		}
		flatW = append(flatW, q.Weights...)
	}
	sc := getScratch(ix.NumTuples(), qlen)
	return &Multi{
		// Steering weights: probing the list maximizing wmax_j·t_j
		// drains every member's threshold fastest; the scan's q is
		// never used for scoring or projection beyond its Dims.
		scan:        newScanState(ix, vec.Query{Dims: base.Dims, Weights: wmax}, k, policy, sc),
		sc:          sc,
		queries:     queries,
		flatW:       flatW,
		encountered: sc.encountered,
		scores:      sc.scores,
		heaps:       make([][]float64, len(queries)),
		memDone:     make([]bool, len(queries)),
	}
}

// Release returns the shared scan's scratch to the pool. Every member
// result and MemberRun handed out aliases its projections and is dead
// afterwards, as is the Multi; copy what must survive with Compact
// first. Releasing twice is a no-op.
func (m *Multi) Release() {
	if m.sc == nil {
		return
	}
	sc := m.sc
	sc.encountered, sc.scores = m.encountered, m.scores
	m.sc, m.encountered, m.scores, m.results = nil, nil, nil, nil
	m.scan.cursors, m.scan.last, m.scan.consumed, m.scan.seen = nil, nil, nil, nil
	m.done = false
	putScratch(sc)
}

// termCheckStride is how often (in sorted accesses) the fused scan runs
// the whole group's termination test; see Run.
const termCheckStride = 16

// RunContext executes the fused scan to termination under a context,
// with the same cancellation contract as TA.RunContext.
func (m *Multi) RunContext(ctx context.Context) error {
	if ctx != nil && m.scan.ctx == nil {
		m.scan.ctx = ctx
	}
	m.Run()
	return m.scan.ctxErr
}

// Run executes the fused scan until every member has individually
// terminated (or the lists are exhausted) and materializes each
// member's ranked result and candidate list.
func (m *Multi) Run() {
	if m.done {
		return
	}
	if m.sc == nil {
		panic("topk: Run after Release")
	}
	nq := len(m.queries)
	qlen := m.scan.q.Len()
	thrVec := make([]float64, qlen)
	memThr := make([]float64, nq)
	scoreBuf := make([]float64, nq)
	for step := 0; ; step++ {
		// The group termination test costs nq×qlen flops (one batched
		// dot over the threshold vector), against a solo TA's qlen — so
		// it runs every termCheckStride accesses instead of every one.
		// The scan may overshoot by up to stride-1 accesses, which only
		// deepens the (still valid) terminated state; thresholds fall
		// and k-th scores rise monotonically, so no satisfaction is lost.
		if step%termCheckStride == 0 && m.allSatisfied(thrVec, memThr) {
			break
		}
		p, _, isNew, ok := m.scan.rawStep()
		if !ok {
			break // dataset exhausted (or context canceled)
		}
		if !isNew {
			continue
		}
		// One random access and one projection serve every member; only
		// the scores fan out, through the batched kernel. Each DotBatch
		// row is bit-identical to the member's solo vec.Dot (the batch
		// kernel gives every output its own accumulator).
		sc := Scored{ID: p.ID, Proj: m.sc.arena.alloc()}
		m.scan.ix.Project(p.ID, m.scan.q.Dims, sc.Proj)
		for b, v := range sc.Proj {
			if v > 0 {
				sc.NZMask |= 1 << uint(b)
			}
		}
		vec.DotBatch(m.flatW, sc.Proj, scoreBuf)
		m.encountered = append(m.encountered, sc)
		m.scores = append(m.scores, scoreBuf...)
		for mi := 0; mi < nq; mi++ {
			if !m.memDone[mi] {
				m.heaps[mi] = offerHeap(m.heaps[mi], m.scan.k, scoreBuf[mi])
			}
		}
	}
	// Materialization is lazy and per member: Result needs only a
	// k-selection over the encounter set (O(E), the common case for
	// fused ranked queries), while Member — the region-computation
	// entry — additionally ranks the full candidate tail.
	m.results = make([][]Scored, nq)
	m.done = true
}

// selectTopK extracts member mi's ranked top-k from the encounter set
// by bounded insertion — one comparison per encounter in the common
// case — instead of sorting all E entries per member.
func (m *Multi) selectTopK(mi int) []Scored {
	nq := len(m.queries)
	k := m.scan.k
	best := make([]Scored, 0, k+1)
	for e, sc := range m.encountered {
		sc.Score = m.scores[e*nq+mi]
		if len(best) == k {
			last := best[k-1]
			if sc.Score < last.Score || (sc.Score == last.Score && sc.ID > last.ID) {
				continue
			}
		}
		lo, hi := 0, len(best)
		for lo < hi {
			mid := (lo + hi) / 2
			if best[mid].Score > sc.Score || (best[mid].Score == sc.Score && best[mid].ID < sc.ID) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		best = append(best, Scored{})
		copy(best[lo+1:], best[lo:])
		best[lo] = sc
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

// rank fully materializes member mi: the whole encounter set scored
// with the member's weights, in ranked order — the top-k followed by the
// descending candidate tail region computation consumes.
func (m *Multi) rank(mi int) []Scored {
	nq := len(m.queries)
	ranked := make([]Scored, len(m.encountered))
	for e, sc := range m.encountered {
		sc.Score = m.scores[e*nq+mi]
		ranked[e] = sc
	}
	sortScored(ranked)
	return ranked
}

// allSatisfied runs every live member's termination test against the
// current thresholds and reports whether the whole group is done.
// Member thresholds are one batched dot product over the threshold
// vector — bit-identical to each member's solo ThresholdScore, since an
// exhausted list contributes an exact +0.0 term to a non-negative sum.
// Satisfaction is sticky: thresholds only fall and the k-th best only
// rises as the scan advances.
func (m *Multi) allSatisfied(thrVec, memThr []float64) bool {
	if len(m.encountered) < m.scan.k {
		return false
	}
	m.scan.ThresholdsInto(thrVec)
	vec.DotBatch(m.flatW, thrVec, memThr)
	all := true
	for mi, done := range m.memDone {
		if done {
			continue
		}
		if len(m.heaps[mi]) >= m.scan.k && m.heaps[mi][0] >= memThr[mi] {
			m.memDone[mi] = true
			continue
		}
		all = false
	}
	return all
}

// SortedAccesses reports the shared scan's sorted-access count — the
// whole group's, paid once.
func (m *Multi) SortedAccesses() int { return m.scan.sortedAccesses }

// Result returns member i's ranked top-k. Run must have completed.
// Like TA, a Multi is not safe for concurrent use: materialization is
// lazy and memoized.
func (m *Multi) Result(i int) []Scored {
	m.mustBeDone("Result")
	if m.results[i] == nil {
		m.results[i] = m.selectTopK(i)
	}
	return m.results[i]
}

// Member returns member i's resumable view of the completed run,
// suitable for region computation (core.ComputeView): its own ranked
// copy of the encounter set (projections still shared with the run) and
// its own clone of the scan position with the member's query
// substituted, so Resume pulls score with the member's weights and
// never disturb the shared state or any sibling view. See the package
// comment for why the view's candidate set legitimately differs from a
// solo scan's.
func (m *Multi) Member(i int) *MemberRun {
	m.mustBeDone("Member")
	// The view owns its ranked list: Resume appends to the tail.
	ranked := m.rank(i)
	cut := min(m.scan.k, len(ranked))
	r := &MemberRun{Fork{
		scanState: m.scan.clone(),
		arena:     projArena{qlen: m.scan.q.Len()},
		result:    ranked[:cut:cut],
		cands:     ranked[cut:],
	}}
	r.q = m.queries[i]
	return r
}

func (m *Multi) mustBeDone(op string) {
	if m.sc == nil {
		panic("topk: " + op + " after Release")
	}
	if !m.done {
		panic("topk: " + op + " before Run")
	}
}

// MemberRun is one member's view of a completed fused run: a Fork of the
// shared scan with the member's query substituted, so Result, Candidates
// and Resume are Fork's. It implements View (and core.Runner): the scan
// is already terminated, so RunContext only arms the context and reports
// any cancellation.
type MemberRun struct{ Fork }

// RunContext arms ctx on the (already completed) member scan so that
// later Resume pulls observe cancellation, and reports the scan error.
func (r *MemberRun) RunContext(ctx context.Context) error {
	if ctx != nil && r.ctx == nil {
		r.ctx = ctx
	}
	return r.ctxErr
}

// ForkView returns an isolated resumable copy for one dimension of a
// parallel region computation, mirroring TA.Fork.
func (r *MemberRun) ForkView() View {
	return &Fork{
		scanState: r.scanState.clone(),
		arena:     projArena{qlen: r.q.Len()},
		result:    r.result,
		cands:     slices.Clone(r.cands),
	}
}
