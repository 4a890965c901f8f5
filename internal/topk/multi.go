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
	"math"
	"slices"

	"repro/internal/lists"
	"repro/internal/vec"
)

// Multi is a fused TA run over a group of same-subspace, same-k
// queries. RunContext executes the shared scan; Member then hands out
// per-member resumable views for region computation.
type Multi struct {
	scan    scanState // q = {Dims, per-dim max weight}: probe steering only
	sc      *scratch  // pooled scan memory; nil once released
	queries []vec.Query
	flatW   []float64 // len(queries)×qlen member weight rows

	rows    Table    // shared: id, mask, coordinates; scores are per member
	scores  []column // scores[m] is member m's score column over rows
	heaps   [][]float64
	memDone []bool

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
	if cap(sc.scores) < len(queries) {
		sc.scores = append(sc.scores[:cap(sc.scores)], make([]column, len(queries)-cap(sc.scores))...)
	}
	return &Multi{
		// Steering weights: probing the list maximizing wmax_j·t_j
		// drains every member's threshold fastest; the scan's q is
		// never used for scoring or projection beyond its Dims.
		scan:    newScanState(ix, vec.Query{Dims: base.Dims, Weights: wmax}, k, policy, sc),
		sc:      sc,
		queries: queries,
		flatW:   flatW,
		rows:    sc.rows,
		scores:  sc.scores[:len(queries)],
		heaps:   make([][]float64, len(queries)),
		memDone: make([]bool, len(queries)),
	}
}

// Release returns the shared scan's pages and scratch to their pools.
// Every MemberRun handed out reads those pages and is dead afterwards, as
// is the Multi; member results are copies and survive. Releasing twice
// is a no-op.
func (m *Multi) Release() {
	if m.sc == nil {
		return
	}
	sc := m.sc
	m.rows.release()
	for i := range m.scores {
		m.scores[i].release()
	}
	sc.rows = m.rows
	m.sc, m.rows, m.scores, m.results = nil, Table{}, nil, nil
	m.scan.cursors, m.scan.last, m.scan.consumed, m.scan.seen = nil, nil, nil, nil
	m.done = false
	putScratch(sc)
}

// termCheckStride is how often (in sorted accesses) the fused scan runs
// the whole group's termination test; see RunContext.
const termCheckStride = 16

// RunContext executes the fused scan until every member has individually
// terminated (or the lists are exhausted) and materializes each
// member's ranked result and candidate list, with the same cancellation
// and failure contract as TA.RunContext.
func (m *Multi) RunContext(ctx context.Context) error {
	if ctx != nil && m.scan.ctx == nil {
		m.scan.ctx = ctx
	}
	if m.done {
		return m.scan.Err()
	}
	if m.sc == nil {
		panic("topk: RunContext after Release")
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
			break // dataset exhausted, or the scan failed
		}
		if !isNew {
			continue
		}
		// One random access and one projection serve every member; only
		// the scores fan out, through vec.DotBatch. Each row is
		// bit-identical to the member's solo vec.Dot (every output has
		// its own accumulator).
		proj := m.sc.proj
		if m.scan.err = m.scan.ix.Project(p.ID, m.scan.q.Dims, proj); m.scan.err != nil {
			break
		}
		vec.DotBatch(m.flatW, proj, scoreBuf)
		pos := m.rows.add(p.ID, nzMask(proj), proj)
		for mi, s := range scoreBuf {
			m.scores[mi].put(pos, math.Float64bits(s))
			if !m.memDone[mi] {
				m.heaps[mi] = offerHeap(m.heaps[mi], m.scan.k, s)
			}
		}
	}
	// Materialization is lazy and per member: Result needs only a
	// k-selection over the encounter set (O(E), the common case for
	// fused ranked queries), while Member — the region-computation
	// entry — additionally ranks the full candidate tail.
	m.results = make([][]Scored, nq)
	m.done = true
	return m.scan.Err()
}

// view returns the shared rows under member mi's scores: a table that
// reads the fused scan's pages and owns none of them.
func (m *Multi) view(mi int) Table { return m.rows.share(&m.scores[mi]) }

// selectTopK extracts member mi's ranked top-k from the encounter set
// by bounded insertion — one comparison per encounter in the common
// case — instead of ranking all E rows per member.
func (m *Multi) selectTopK(mi int) []Scored {
	t := m.view(mi)
	k := m.scan.k
	best := make([]int32, 0, k+1)
	for p := int32(0); p < t.n; p++ {
		if len(best) == k && !t.before(p, best[k-1]) {
			continue
		}
		at, _ := slices.BinarySearchFunc(best, p, func(b, p int32) int {
			if t.before(b, p) {
				return -1
			}
			return 1
		})
		best = slices.Insert(best, at, p)
		best = best[:min(len(best), k)]
	}
	return t.Rows(best)
}

// allSatisfied runs every live member's termination test against the
// current thresholds and reports whether the whole group is done.
// Member thresholds are one batched dot product over the threshold
// vector — bit-identical to each member's solo ThresholdScore, since an
// exhausted list contributes an exact +0.0 term to a non-negative sum.
// Satisfaction is sticky: thresholds only fall and the k-th best only
// rises as the scan advances.
func (m *Multi) allSatisfied(thrVec, memThr []float64) bool {
	if m.rows.Len() < m.scan.k {
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

// Result returns member i's ranked top-k. RunContext must have completed.
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
// suitable for region computation (core.ComputeView): the shared rows
// read in place under the member's own score column, its own rank order
// over them, and its own clone of the scan position with the member's
// query substituted, so Resume pulls score with the member's weights,
// land in pages of the view's own and never disturb the shared state or
// any sibling view. See the package comment for why the view's candidate
// set legitimately differs from a solo scan's.
func (m *Multi) Member(i int) *MemberRun {
	m.mustBeDone("Member")
	r := &MemberRun{run{
		scanState: m.scan.clone(),
		rows:      m.view(i),
		proj:      make([]float64, m.scan.q.Len()),
	}}
	r.q = m.queries[i]
	r.finish()
	return r
}

func (m *Multi) mustBeDone(op string) {
	if m.sc == nil {
		panic("topk: " + op + " after Release")
	}
	if !m.done {
		panic("topk: " + op + " before RunContext")
	}
}

// MemberRun is one member's view of a completed fused run: a clone of
// the shared scan with the member's query substituted. It implements View
// (and core.Runner): the scan is already terminated, so RunContext only
// arms the context and reports the scan's error.
type MemberRun struct{ run }

// Release hands the pages the view's own pulls filled back to the pool
// and releases its cursor clones; the view is dead afterwards. The
// shared rows and the fused run's cursors are untouched.
func (r *MemberRun) Release() {
	if !r.released {
		for _, c := range r.cursors {
			c.Release()
		}
		r.rows.release()
		r.run = run{released: true}
	}
}

// RunContext arms ctx on the (already completed) member scan so that
// later Resume pulls observe cancellation, and reports the scan error.
func (r *MemberRun) RunContext(ctx context.Context) error {
	if ctx != nil && r.ctx == nil {
		r.ctx = ctx
	}
	return r.Err()
}
