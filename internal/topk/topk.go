// Package topk implements the random-access Threshold Algorithm (TA) of
// Fagin et al. as used by the paper (§2, Fig. 2): inverted lists are
// probed by sorted access; every newly encountered tuple is fetched in
// full by random access to compute its score; the search stops when the
// k-th best score reaches the threshold S(t,q) of the fictitious tuple
// t = 〈t1,…,tm〉. Unlike textbook TA, the run retains every encountered
// non-result tuple in the candidate list C(q) (decreasing score order),
// which is the raw material of immutable-region computation, and the
// state is resumable — Phase 3 of Scan/CPT continues the very same scan.
//
// Every encountered tuple lives in the run's candidate table (Table): a
// row appended once into pooled pages and addressed by its position from
// then on. Ranking and region computation work on positions; a []Scored
// is built only where rows leave the scan.
//
// The View interface is what region computation reads and resumes: a TA,
// or one member's view of a fused multi-query run (Multi.Member).
package topk

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/lists"
	"repro/internal/storage"
	"repro/internal/vec"
)

// ProbePolicy selects which inverted list the next sorted access goes to.
type ProbePolicy int

const (
	// RoundRobin cycles through the query lists, the textbook strategy.
	RoundRobin ProbePolicy = iota
	// BestList probes the list with the largest qj·(next key) — the
	// Persin heuristic the paper's experiments use (§7.1).
	BestList
)

func (p ProbePolicy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case BestList:
		return "best-list"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Scored is an encountered tuple with its materialized query-subspace
// view: Score = S(d,q), Proj[i] = coordinate on q.Dims[i], and NZMask bit
// i set when Proj[i] > 0. The mask drives the C0/CH/CL partition of §5.1.
// The json tags are the wire form of a scored line on the /shard/* RPCs:
// the exact score and projections, which round-trip exactly as float64.
type Scored struct {
	ID     int       `json:"id"`
	Score  float64   `json:"score"`
	Proj   []float64 `json:"proj"`
	NZMask uint64    `json:"nzmask,omitempty"`
}

// View is the read/resume surface region computation needs from a TA
// run: the ranked result, the candidate rows with their rank order, and
// a resumable scan. It is implemented by *TA itself (the paper-literal
// shared scan, where later dimensions observe earlier dimensions'
// Phase-3 pulls) and by *MemberRun.
type View interface {
	Query() vec.Query
	K() int
	Index() lists.Index
	// Result is the ranked top-k R(q), materialized.
	Result() []Scored
	// Table holds every encountered tuple, result members included, by
	// position; the pointer stays valid for the life of the view.
	Table() *Table
	// Ranking is the rank order of the rows (decreasing score, ties by
	// ascending id) as positions: order[:cut] is R(q), order[cut:] is
	// C(q). The slice is valid until the next Resume.
	Ranking() (order []int32, cut int)
	// Resume continues the terminated scan until it encounters one new
	// tuple and returns its position; ok=false when the lists are
	// exhausted, or the scan has failed.
	Resume() (pos int32, ok bool)
	// Err reports why the scan failed, if it did — cancellation, or a read
	// that failed or named no tuple — leaving its rows a meaningless snapshot.
	Err() error
	ThresholdsInto(dst []float64)
	WasSortedAccessed(i, id int, val float64) bool
}

// scanState is the resumable position of a TA scan over the inverted
// lists: cursor positions, per-list consumption bookkeeping and the
// encountered-tuple set. It is the part of a fused run that each member
// view clones.
type scanState struct {
	ix     lists.Index
	q      vec.Query
	k      int
	policy ProbePolicy

	cursors  []lists.Cursor
	last     []storage.Posting // last consumed posting per query dim
	consumed []int
	rr       int // round-robin position

	seen           bitset // tuple id → already encountered
	n              int    // the index cardinality: posting ids lie in [0, n)
	sortedAccesses int

	// ctx, when non-nil, is polled every ctxCheckStride sorted accesses;
	// once it is cancelled, a random access fails or a posting names an id
	// outside [0, n), the scan refuses further work and err records why.
	// Cursors keep their own failures.
	ctx context.Context
	err error
}

// ctxCheckStride is how often (in sorted accesses) the scan polls its
// context: ctx.Err may take a lock, while one sorted access is a few
// nanoseconds, so polling each step would dominate the hot loop.
const ctxCheckStride = 256

// bitset is a fixed-size bit array over tuple ids. One bit per tuple
// keeps the per-query footprint at n/8 bytes — the encountered set is
// cloned per member view of a fused run, so compactness matters at large n.
type bitset []uint64

func (b bitset) test(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// clone deep-copies the scan position; cursors are cloned so the copy
// advances independently.
func (s *scanState) clone() scanState {
	cp := *s
	cp.cursors = make([]lists.Cursor, len(s.cursors))
	for i, c := range s.cursors {
		cp.cursors[i] = c.Clone()
	}
	cp.last = slices.Clone(s.last)
	cp.consumed = slices.Clone(s.consumed)
	cp.seen = slices.Clone(s.seen)
	return cp
}

// Query returns the query this scan answers.
func (s *scanState) Query() vec.Query { return s.q }

// K returns the requested result size.
func (s *scanState) K() int { return s.k }

// Index returns the underlying index.
func (s *scanState) Index() lists.Index { return s.ix }

// Thresholds returns the current per-query-dimension sorting keys tj (the
// key of the next unconsumed posting; 0 for an exhausted list), as a
// slice parallel to Query().Dims.
func (s *scanState) Thresholds() []float64 {
	t := make([]float64, len(s.cursors))
	s.ThresholdsInto(t)
	return t
}

// ThresholdsInto writes the current thresholds into dst (length qlen);
// the allocation-free variant Phase-3 loops call once per resume check.
func (s *scanState) ThresholdsInto(dst []float64) {
	for i, c := range s.cursors {
		dst[i] = 0
		if p, ok := c.Peek(); ok {
			dst[i] = p.Val
		}
	}
}

// ThresholdScore returns S(t,q) = Σ qj·tj for the current thresholds.
func (s *scanState) ThresholdScore() float64 {
	sum := 0.0
	for i, c := range s.cursors {
		if p, ok := c.Peek(); ok {
			sum += s.q.Weights[i] * p.Val
		}
	}
	return sum
}

// SortedAccesses reports how many sorted accesses have been performed.
func (s *scanState) SortedAccesses() int { return s.sortedAccesses }

// Err reports why the scan failed, if it did (see View).
func (s *scanState) Err() error {
	for i := 0; s.err == nil && i < len(s.cursors); i++ {
		if err := s.cursors[i].Err(); err != nil {
			s.err = fmt.Errorf("topk: sorted access on dimension %d: %w", s.q.Dims[i], err)
		}
	}
	return s.err
}

// pick selects the next list to probe, or -1 when all are exhausted.
func (s *scanState) pick() int {
	switch s.policy {
	case BestList:
		best, bestVal := -1, -1.0
		for i, c := range s.cursors {
			if p, ok := c.Peek(); ok {
				if v := s.q.Weights[i] * p.Val; v > bestVal {
					best, bestVal = i, v
				}
			}
		}
		return best
	default:
		for range s.cursors {
			i := s.rr
			s.rr = (s.rr + 1) % len(s.cursors)
			if _, ok := s.cursors[i].Peek(); ok {
				return i
			}
		}
		return -1
	}
}

// rawStep performs one sorted access. It returns the consumed posting,
// the probed list index, whether the tuple is newly encountered, and
// ok=false when every list is exhausted or the scan has failed.
func (s *scanState) rawStep() (p storage.Posting, list int, isNew, ok bool) {
	if s.err == nil && s.ctx != nil && s.sortedAccesses%ctxCheckStride == 0 {
		s.err = s.ctx.Err()
	}
	if s.err != nil {
		return storage.Posting{}, -1, false, false
	}
	i := s.pick()
	if i < 0 {
		return storage.Posting{}, -1, false, false
	}
	p, _ = s.cursors[i].Next()
	s.sortedAccesses++
	s.last[i] = p
	s.consumed[i]++
	if uint(p.ID) >= uint(s.n) {
		s.err = fmt.Errorf("topk: posting id %d in the list of dimension %d is out of range [0,%d) (corrupt list?)", p.ID, s.q.Dims[i], s.n)
		return storage.Posting{}, -1, false, false
	}
	if s.seen.test(p.ID) {
		return p, i, false, true
	}
	s.seen.set(p.ID)
	return p, i, true, true
}

// WasSortedAccessed reports whether tuple id's entry in the i-th query
// list was consumed by sorted access — the Phase-3 test that decides
// whether the upper bound needs list resumption at all (§4). val must be
// the tuple's coordinate on that dimension.
func (s *scanState) WasSortedAccessed(i int, id int, val float64) bool {
	if val <= 0 {
		return false // zero coordinates have no posting
	}
	if s.consumed[i] == 0 {
		return false
	}
	if s.consumed[i] >= s.ix.ListLen(s.q.Dims[i]) {
		return true
	}
	last := s.last[i]
	if val != last.Val {
		return val > last.Val
	}
	return id <= last.ID // lists break value ties by ascending id
}

// run is a scan together with the rows it has encountered and their rank
// order: what a TA and a member view of a fused run have in common.
type run struct {
	scanState
	rows Table

	// order ranks rows [0, len(order)): order[:cut] is R(q), frozen when
	// the scan terminated, order[cut:] is C(q). Rows past len(order) —
	// Resume's pulls — are ranked and merged in by the next Ranking call.
	order  []int32
	cut    int
	result []Scored // order[:cut], materialized once

	tail []int32   // merge buffer: the newly ranked pulls
	rank *ranker   // radix buffers; nil on a member view, which borrows them (sortRanked)
	proj []float64 // the projection of the tuple being encountered

	done, released bool
}

// must panics unless the scan has terminated and still holds its rows.
func (r *run) must(op string) {
	if r.released {
		panic("topk: " + op + " after Release")
	}
	if !r.done {
		panic("topk: " + op + " before RunContext")
	}
}

// encounter adds newly met tuple id to the table: one random access that
// projects the record into the run's buffer (no full vector in between),
// then one row. The score is computed from the dense projection through
// vec.Dot rather than the sparse merge; the two are
// bit-identical (vec.TestDotMatchesSparseScore pins it) because the
// unmatched dimensions contribute exact +0.0 terms to a running sum that
// never goes negative.
// A failed access fails the scan: ok=false, and Err says why.
func (r *run) encounter(id int) (pos int32, score float64, ok bool) {
	if r.err = r.ix.Project(id, r.q.Dims, r.proj); r.err != nil {
		return 0, 0, false
	}
	score = vec.Dot(r.q.Weights, r.proj)
	pos = r.rows.add(id, nzMask(r.proj), r.proj)
	r.rows.score.put(pos, math.Float64bits(score))
	return pos, score, true
}

// nzMask is the partition mask of a projection: bit i set when proj[i] > 0.
func nzMask(proj []float64) (mask uint64) {
	for b, v := range proj {
		if v > 0 {
			mask |= 1 << uint(b)
		}
	}
	return mask
}

// finish ranks every encountered row once the scan has terminated and
// fixes the result.
func (r *run) finish() {
	n := r.rows.Len()
	r.order = slices.Grow(r.order[:0], n)[:n]
	for p := range r.order {
		r.order[p] = int32(p)
	}
	r.sortRanked(r.order)
	r.cut = min(r.k, n)
	r.result = r.rows.Rows(r.order[:r.cut])
	r.done = true
}

// Table returns the candidate table: every encountered tuple, result
// members included, by position.
func (r *run) Table() *Table {
	r.must("Table")
	return &r.rows
}

// Result returns the ranked top-k list R(q). The scan must have
// terminated. The list is a copy and outlives the run.
func (r *run) Result() []Scored {
	r.must("Result")
	return r.result
}

// Ranking returns the rank order of the rows — decreasing score, ties by
// ascending id — as positions: order[:cut] is R(q), order[cut:] is C(q).
// It is valid until the next Resume. Pulls made since the last call are
// ranked among themselves and merged into C(q) from the back, so the cost
// is that of the tail and of the rows it overtakes, not of the list.
func (r *run) Ranking() (order []int32, cut int) {
	r.must("Ranking")
	if old, n := len(r.order), r.rows.Len(); old < n {
		r.order = slices.Grow(r.order, n-old)[:n]
		for p := old; p < n; p++ {
			r.order[p] = int32(p)
		}
		r.sortRanked(r.order[old:])
		r.tail = append(r.tail[:0], r.order[old:]...)
		i, w := old-1, n-1
		for j := len(r.tail) - 1; j >= 0; w-- {
			if i >= r.cut && r.rows.before(r.tail[j], r.order[i]) {
				r.order[w] = r.order[i]
				i--
			} else {
				r.order[w] = r.tail[j]
				j--
			}
		}
	}
	return r.order, r.cut
}

// sortRanked ranks positions of the run's table with the run's radix
// buffers — a member view borrows a pool's for the call — and the tail buffer
// for merging.
func (r *run) sortRanked(pos []int32) {
	rk := r.rank
	if rk == nil {
		rk = rankerPool.Get().(*ranker)
		defer rankerPool.Put(rk)
	}
	r.tail = r.rows.sortRanked(pos, r.tail, rk)
}

// Candidates materializes C(q), every encountered non-result tuple in
// decreasing score order. Region computation reads rows in place
// (Table, Ranking); this copy is for callers outside the scan.
func (r *run) Candidates() []Scored {
	order, cut := r.Ranking()
	return r.rows.Rows(order[cut:])
}

// Resume continues the terminated scan until it encounters one new
// (previously unseen) tuple, which Phase 3 of the region algorithms
// evaluates and which joins C(q); it returns the new row's position.
// ok=false when the lists are exhausted or the scan has failed.
func (r *run) Resume() (int32, bool) {
	r.must("Resume")
	for {
		p, _, isNew, ok := r.rawStep()
		if !ok {
			return 0, false
		}
		if isNew {
			pos, _, ok := r.encounter(p.ID)
			return pos, ok
		}
	}
}

// TA is a resumable threshold-algorithm run. Its scan state, table
// directories and rank order live in a pooled scratch and its rows in
// pooled pages: Release recycles both, and a TA that is never released
// simply leaves them to the garbage collector.
type TA struct {
	run
	sc        *scratch  // nil once released
	topScores []float64 // min-heap of the k best scores seen so far

	trace func(TraceStep)
}

// TraceStep is one sorted access in a TA execution — the rows of the
// paper's Fig. 2 trace. Snapshot fields are only filled when the access
// encountered a new tuple.
type TraceStep struct {
	Step           int
	QPos           int // index into Query().Dims of the probed list
	Dim            int // the probed dimension
	Tuple          int // tuple id encountered; -1 for an already-seen posting
	Score          float64
	Thresholds     []float64
	ThresholdScore float64
	ResultIDs      []int // tentative top-k, ranked
	CandidateIDs   []int // tentative candidates, by decreasing score
}

// SetTrace installs a per-sorted-access callback. Tracing materializes a
// ranked snapshot on every new tuple, so it is meant for demonstrations
// and tests, not benchmarks. Must be called before RunContext.
func (ta *TA) SetTrace(fn func(TraceStep)) { ta.trace = fn }

// emitTrace builds and delivers the snapshot after a sorted access.
func (ta *TA) emitTrace(qpos, tuple int, score float64) {
	ts := TraceStep{
		Step:           ta.sortedAccesses,
		QPos:           qpos,
		Dim:            ta.q.Dims[qpos],
		Tuple:          tuple,
		Score:          score,
		Thresholds:     ta.Thresholds(),
		ThresholdScore: ta.ThresholdScore(),
	}
	if tuple >= 0 {
		ranked := make([]int32, ta.rows.Len())
		for p := range ranked {
			ranked[p] = int32(p)
		}
		ta.rows.sortRanked(ranked, nil, ta.rank)
		for i, p := range ranked {
			if i < ta.k {
				ts.ResultIDs = append(ts.ResultIDs, ta.rows.ID(p))
			} else {
				ts.CandidateIDs = append(ts.CandidateIDs, ta.rows.ID(p))
			}
		}
	}
	ta.trace(ts)
}

// New prepares a TA run of query q over ix for the top-k result. qlen
// must not exceed 64 (the partition mask is a uint64).
func New(ix lists.Index, q vec.Query, k int, policy ProbePolicy) *TA {
	if q.Len() > 64 {
		panic(fmt.Sprintf("topk: qlen %d exceeds 64", q.Len()))
	}
	if k < 1 {
		panic(fmt.Sprintf("topk: k=%d", k))
	}
	sc := getScratch(ix.NumTuples(), q.Len())
	if sc.rank == nil {
		sc.rank = new(ranker)
	}
	return &TA{
		run: run{
			scanState: newScanState(ix, q, k, policy, sc),
			rows:      sc.rows,
			order:     sc.order,
			tail:      sc.tail,
			rank:      sc.rank,
			proj:      sc.proj,
		},
		sc:        sc,
		topScores: sc.heap,
	}
}

// newScanState opens the query's cursors over the scratch's per-list
// bookkeeping — the start position shared by New and NewMulti.
func newScanState(ix lists.Index, q vec.Query, k int, policy ProbePolicy, sc *scratch) scanState {
	s := scanState{
		ix:       ix,
		q:        q,
		k:        k,
		policy:   policy,
		cursors:  sc.cursors,
		last:     sc.last,
		consumed: sc.consumed,
		seen:     sc.seen,
		n:        ix.NumTuples(),
	}
	for i, dim := range q.Dims {
		s.cursors[i] = ix.Cursor(dim)
	}
	return s
}

// Release returns the run's pages and scratch to their pools. The table,
// its rank order and the TA itself are dead afterwards; what was materialized (Result, Candidates, Rows)
// is a copy and survives. Releasing twice is a no-op.
func (ta *TA) Release() {
	if ta.sc == nil {
		return
	}
	sc := ta.sc
	ta.rows.release()
	// The directories and lists may have been regrown; keep the larger arrays.
	sc.rows, sc.order, sc.tail, sc.heap = ta.rows, ta.order, ta.tail, ta.topScores
	ta.sc, ta.topScores = nil, nil
	// What the run counted stays readable; what it held does not.
	ta.run = run{scanState: scanState{sortedAccesses: ta.sortedAccesses, err: ta.Err()}, released: true}
	putScratch(sc)
}

// step performs one sorted access and, if it encounters a new tuple, the
// corresponding random access. It returns the new row's position (isNew
// false if the tuple was already seen) and ok=false when every list is
// exhausted or the scan has failed.
func (ta *TA) step() (pos int32, isNew, ok bool) {
	p, i, isNew, ok := ta.rawStep()
	if !ok {
		return 0, false, false
	}
	if !isNew {
		if ta.trace != nil {
			ta.emitTrace(i, -1, 0)
		}
		return 0, false, true
	}
	pos, score, ok := ta.encounter(p.ID)
	if !ok {
		return 0, false, false
	}
	ta.topScores = offerHeap(ta.topScores, ta.k, score)
	if ta.trace != nil {
		ta.emitTrace(i, p.ID, score)
	}
	return pos, true, true
}

// offerHeap pushes s into the k-bounded min-heap h of the highest
// scores seen and returns the updated heap. Shared by TA and the fused
// Multi scan (one heap per member there).
func offerHeap(h []float64, k int, s float64) []float64 {
	if len(h) < k {
		h = append(h, s)
		// sift up
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if h[p] <= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
		return h
	}
	if s <= h[0] {
		return h
	}
	h[0] = s
	// sift down
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h[l] < h[min] {
			min = l
		}
		if r < len(h) && h[r] < h[min] {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return h
}

// RunContext executes TA to termination under a context and ranks what
// it encountered: the result R(q) and the candidate list C(q). A nil ctx
// (or context.Background()) is never cancelled. When the context is
// cancelled mid-scan the run stops within ctxCheckStride sorted
// accesses; when a read fails, at that read. Either way the returned
// error is Err's, and the TA's result and candidate accessors then hold
// a truncated, meaningless snapshot and must not be consulted.
func (ta *TA) RunContext(ctx context.Context) error {
	if ctx != nil && ta.ctx == nil {
		ta.ctx = ctx
	}
	if ta.done {
		return ta.Err()
	}
	if ta.sc == nil {
		panic("topk: RunContext after Release")
	}
	for {
		// Termination: k-th tentative score ≥ threshold. topScores[0] is
		// the k-th highest score among encountered tuples.
		if ta.rows.Len() >= ta.k && ta.topScores[0] >= ta.ThresholdScore() {
			break
		}
		if _, _, ok := ta.step(); !ok {
			break // dataset exhausted, or the scan failed
		}
	}
	ta.finish()
	return ta.Err()
}

// Resume is run.Resume over the traced step.
func (ta *TA) Resume() (int32, bool) {
	ta.must("Resume")
	for {
		pos, isNew, ok := ta.step()
		if !ok {
			return 0, false
		}
		if isNew {
			return pos, true
		}
	}
}

// ByRank is the one result order — score descending, ties by ascending
// id — as a slices.SortFunc comparator: every []Scored that is ranked
// anywhere (a naive or rescored result, a shard merge, the coordinator's
// contributed lines) is ranked by it, and Table.before is the same order
// over row positions. Ids are distinct, so it is total.
func ByRank(a, b Scored) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// TopKNaive computes the ranked top-k by scoring every tuple — the
// correctness oracle for TA, and the ranking STB's radius is built on.
func TopKNaive(tuples []vec.Sparse, q vec.Query, k int) []Scored {
	all := make([]Scored, 0, len(tuples))
	for id, d := range tuples {
		sc := Scored{ID: id, Score: q.Score(d), Proj: q.Project(d)}
		for b, v := range sc.Proj {
			if v > 0 {
				sc.NZMask |= 1 << uint(b)
			}
		}
		all = append(all, sc)
	}
	slices.SortFunc(all, ByRank)
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}
