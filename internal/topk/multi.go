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
// Each member's result is exactly its solo TA's: tuples encountered after
// the member's own termination point were bounded by its threshold, so
// they rank below its k-th score. The fused run answers ranked queries
// only (/batchtopk): an analysis runs its own TA, whose candidate set
// and Phase-3 pulls are its query's own, so what it evaluates and
// reads does not depend on the batch it arrived in.
package topk

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"

	"repro/internal/lists"
	"repro/internal/vec"
)

// Multi is a fused TA run over a group of same-subspace, same-k
// queries. RunContext executes the shared scan; Result then selects each
// member's ranked top-k.
type Multi struct {
	scan    scanState // q = {Dims, per-dim max weight}: probe steering only
	queries []vec.Query
	flatW   []float64 // len(queries)×qlen member weight rows
	proj    []float64 // the projection of the tuple being encountered

	rows    Table            // shared: id, mask, coordinates; scores are per member
	scores  []column[uint64] // scores[m] is member m's score column over rows
	heaps   [][]float64
	memDone []bool

	results  [][]Scored // memoized Result(i)
	done     bool
	released bool
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
	m := &Multi{
		// Steering weights: probing the list maximizing wmax_j·t_j
		// drains every member's threshold fastest; the scan's q is
		// never used for scoring or projection beyond its Dims.
		scan:    newScanState(ix, vec.Query{Dims: base.Dims, Weights: wmax}, k, policy),
		queries: queries,
		flatW:   flatW,
		proj:    make([]float64, qlen),
		rows:    newTable(qlen),
		scores:  make([]column[uint64], len(queries)),
		heaps:   make([][]float64, len(queries)),
		memDone: make([]bool, len(queries)),
	}
	runtime.SetFinalizer(m, (*Multi).Release) // as for TA
	return m
}

// Release hands the shared scan's encountered set and pages back to the
// arena. The Multi is dead afterwards; member results are copies and
// survive. Releasing twice is a no-op.
func (m *Multi) Release() {
	if m.released {
		return
	}
	runtime.SetFinalizer(m, nil)
	m.rows.release()
	for i := range m.scores {
		m.scores[i].release()
	}
	m.scan = m.scan.release()
	m.rows, m.scores, m.results = Table{}, nil, nil
	m.done, m.released = false, true
}

// termCheckStride is how often (in sorted accesses) the fused scan runs
// the whole group's termination test; see RunContext.
const termCheckStride = 16

// RunContext executes the fused scan until every member has individually
// terminated (or the lists are exhausted), with the same cancellation
// and failure contract as TA.RunContext.
func (m *Multi) RunContext(ctx context.Context) error {
	if ctx != nil && m.scan.ctx == nil {
		m.scan.ctx = ctx
	}
	if m.done {
		return m.scan.Err()
	}
	if m.released {
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
		proj := m.proj
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
	// k-selection over the encounter set (O(E)), never a full ranking.
	m.results = make([][]Scored, nq)
	m.done = true
	return m.scan.Err()
}

// view returns the shared rows under member mi's scores: a read-only
// shallow copy of the table, which nothing appends to.
func (m *Multi) view(mi int) Table {
	t := m.rows
	t.score = m.scores[mi]
	return t
}

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
		if len(m.heaps[mi]) >= m.scan.k && m.heaps[mi][0] > memThr[mi] {
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

func (m *Multi) mustBeDone(op string) {
	if m.released {
		panic("topk: " + op + " after Release")
	}
	if !m.done {
		panic("topk: " + op + " before RunContext")
	}
}
