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
// A completed run can also be forked (Fork): each fork carries its own
// cursor clones and encountered-set copy, so several region computations
// (one per query dimension) can resume the scan independently and
// concurrently without observing each other's pulls. The View interface
// abstracts over the shared TA and its forks for that purpose.
package topk

import (
	"context"
	"fmt"
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
type Scored struct {
	ID     int
	Score  float64
	Proj   []float64
	NZMask uint64
}

// NonZero reports how many query dimensions the tuple is non-zero on.
func (s Scored) NonZero() int {
	n := 0
	for m := s.NZMask; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// View is the read/resume surface region computation needs from a TA
// run: the ranked result, the candidate list, and a resumable scan. It
// is implemented by *TA itself (the paper-literal shared scan, where
// later dimensions observe earlier dimensions' Phase-3 pulls) and by
// *Fork (an isolated per-dimension scan for deterministic parallel
// execution).
type View interface {
	Query() vec.Query
	K() int
	Index() lists.Index
	Result() []Scored
	Candidates() []Scored
	Resume() (Scored, bool)
	Thresholds() []float64
	ThresholdsInto(dst []float64)
	WasSortedAccessed(i, id int, val float64) bool
}

// scanState is the resumable position of a TA scan over the inverted
// lists: cursor positions, per-list consumption bookkeeping and the
// encountered-tuple set. It is the part of a run that Fork duplicates.
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
	sortedAccesses int

	// ctx, when non-nil, is polled every ctxCheckStride sorted accesses;
	// once it is cancelled the scan refuses further work (rawStep reports
	// exhaustion) and ctxErr records why. Forks inherit both fields, so
	// cancelling the query stops every per-dimension continuation too.
	ctx    context.Context
	ctxErr error
}

// ctxCheckStride is how often (in sorted accesses) the scan polls its
// context: ctx.Err may take a lock, while one sorted access is a few
// nanoseconds, so polling each step would dominate the hot loop.
const ctxCheckStride = 256

// bitset is a fixed-size bit array over tuple ids. One bit per tuple
// keeps the per-query footprint at n/8 bytes — the encountered set is
// cloned per Fork, so compactness matters at large n.
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

// Err reports why the scan refuses to advance — the context-cancellation
// error observed by a sorted access — or nil while the scan is live.
func (s *scanState) Err() error { return s.ctxErr }

// Depth reports how many postings have been consumed from the i-th query
// list.
func (s *scanState) Depth(i int) int { return s.consumed[i] }

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
// ok=false when every list is exhausted.
func (s *scanState) rawStep() (p storage.Posting, list int, isNew, ok bool) {
	if s.ctxErr != nil {
		return storage.Posting{}, -1, false, false
	}
	if s.ctx != nil && s.sortedAccesses%ctxCheckStride == 0 {
		if err := s.ctx.Err(); err != nil {
			s.ctxErr = err
			return storage.Posting{}, -1, false, false
		}
	}
	i := s.pick()
	if i < 0 {
		return storage.Posting{}, -1, false, false
	}
	p, _ = s.cursors[i].Next()
	s.sortedAccesses++
	s.last[i] = p
	s.consumed[i]++
	if p.ID < 0 || p.ID>>6 >= len(s.seen) {
		// Keep a descriptive failure for corrupt list files; the bitset
		// would otherwise die with an anonymous bounds panic.
		panic(fmt.Sprintf("topk: posting id %d out of range [0,%d) (corrupt list?)", p.ID, len(s.seen)*64))
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

// score materializes the Scored view of a newly encountered tuple: one
// random access that projects the record straight into a slot carved
// out of the arena (no full vector in between). The score is computed from
// the dense projection through the unrolled dot kernel rather than the
// sparse merge; the two are bit-identical (vec.TestDotMatchesSparseScore
// pins it) because the unmatched dimensions contribute exact +0.0 terms
// to a running sum that never goes negative.
func (s *scanState) score(id int, arena *projArena) Scored {
	sc := Scored{ID: id, Proj: arena.alloc()}
	s.ix.Project(id, s.q.Dims, sc.Proj)
	sc.Score = vec.Dot(s.q.Weights, sc.Proj)
	for b, v := range sc.Proj {
		if v > 0 {
			sc.NZMask |= 1 << uint(b)
		}
	}
	return sc
}

// TA is a resumable threshold-algorithm run. Its scan state, encountered
// list and projections live in a pooled scratch: Release recycles it, and
// a TA that is never released simply leaves it to the garbage collector.
type TA struct {
	scanState
	sc *scratch // nil once released

	// encountered holds every tuple the scan has met. Run ranks it in
	// place: encountered[:cut] is then R(q) and encountered[cut:] is C(q),
	// which Resume extends by appending.
	encountered []Scored
	topScores   []float64 // min-heap of the k best scores seen so far
	cut         int
	done        bool

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
// and tests, not benchmarks. Must be called before Run.
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
		ranked := make([]Scored, len(ta.encountered))
		copy(ranked, ta.encountered)
		sortScored(ranked)
		cut := ta.k
		if cut > len(ranked) {
			cut = len(ranked)
		}
		for _, r := range ranked[:cut] {
			ts.ResultIDs = append(ts.ResultIDs, r.ID)
		}
		for _, r := range ranked[cut:] {
			ts.CandidateIDs = append(ts.CandidateIDs, r.ID)
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
	return &TA{
		scanState:   newScanState(ix, q, k, policy, sc),
		sc:          sc,
		encountered: sc.encountered,
		topScores:   sc.heap,
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
	}
	for i, dim := range q.Dims {
		s.cursors[i] = ix.Cursor(dim)
	}
	return s
}

// Release returns the run's scratch to the pool. Everything the TA
// handed out — Result, Candidates, resumed tuples, their projections —
// aliases that scratch and is dead afterwards, as is the TA itself and
// every Fork taken from it; copy what must survive with Compact first.
// Releasing twice is a no-op.
func (ta *TA) Release() {
	if ta.sc == nil {
		return
	}
	sc := ta.sc
	// The lists may have been regrown by append; keep the larger arrays.
	sc.encountered, sc.heap = ta.encountered, ta.topScores
	ta.sc, ta.encountered, ta.topScores = nil, nil, nil
	ta.cursors, ta.last, ta.consumed, ta.seen = nil, nil, nil, nil
	ta.done = false
	putScratch(sc)
}

// step performs one sorted access and, if it encounters a new tuple, the
// corresponding random access. It returns the new Scored tuple (nil if
// the tuple was already seen) and ok=false when every list is exhausted.
func (ta *TA) step() (*Scored, bool) {
	p, i, isNew, ok := ta.rawStep()
	if !ok {
		return nil, false
	}
	if !isNew {
		if ta.trace != nil {
			ta.emitTrace(i, -1, 0)
		}
		return nil, true
	}
	sc := ta.score(p.ID, &ta.sc.arena)
	ta.encountered = append(ta.encountered, sc)
	ta.offerScore(sc.Score)
	if ta.trace != nil {
		ta.emitTrace(i, sc.ID, sc.Score)
	}
	return &ta.encountered[len(ta.encountered)-1], true
}

// offerScore maintains the min-heap of the k highest scores seen.
func (ta *TA) offerScore(s float64) {
	ta.topScores = offerHeap(ta.topScores, ta.k, s)
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

// RunContext executes TA to termination under a context. A nil ctx (or
// context.Background()) is never cancelled and behaves exactly like Run.
// When the context is cancelled mid-scan the run stops within
// ctxCheckStride sorted accesses and the returned error is non-nil; the
// TA's result and candidate accessors then hold a truncated, meaningless
// snapshot and must not be consulted.
func (ta *TA) RunContext(ctx context.Context) error {
	if ctx != nil && ta.ctx == nil {
		ta.ctx = ctx
	}
	ta.Run()
	return ta.ctxErr
}

// Run executes TA to termination and materializes the ranked result R(q)
// and candidate list C(q).
func (ta *TA) Run() {
	if ta.done {
		return
	}
	if ta.sc == nil {
		panic("topk: Run after Release")
	}
	for {
		// Termination: k-th tentative score ≥ threshold.
		if len(ta.encountered) >= ta.k {
			kth := ta.kthBest()
			if kth >= ta.ThresholdScore() {
				break
			}
		}
		if _, ok := ta.step(); !ok {
			break // dataset exhausted
		}
	}
	sortScored(ta.encountered)
	ta.cut = min(ta.k, len(ta.encountered))
	ta.done = true
}

// kthBest returns the k-th highest score among encountered tuples,
// maintained incrementally in the topScores min-heap.
func (ta *TA) kthBest() float64 { return ta.topScores[0] }

// Result returns the ranked top-k list R(q). Run must have completed.
func (ta *TA) Result() []Scored {
	ta.mustBeDone("Result")
	return ta.encountered[:ta.cut:ta.cut]
}

// Candidates returns C(q), every encountered non-result tuple in
// decreasing score order.
func (ta *TA) Candidates() []Scored {
	ta.mustBeDone("Candidates")
	return ta.encountered[ta.cut:]
}

// Resume continues the terminated scan until it encounters one new
// (previously unseen) tuple, which Phase 3 of the region algorithms
// evaluates and appends to C(q). ok=false when the lists are exhausted.
func (ta *TA) Resume() (Scored, bool) {
	ta.mustBeDone("Resume")
	for {
		sc, ok := ta.step()
		if !ok {
			return Scored{}, false
		}
		if sc != nil {
			return *sc, true
		}
	}
}

// Fork returns an independent resumable view of the completed run: its
// own cursor clones, encountered set, and candidate-list copy. Resuming
// a fork never mutates the parent TA or any sibling fork, so one fork
// per query dimension lets Phase 3 of each dimension pull down its lists
// concurrently and deterministically (every fork sees exactly the
// post-Run state, regardless of scheduling). Forked sorted accesses are
// NOT reported to a SetTrace callback — the callback is not safe for
// concurrent forks — so Fig. 2 traces only cover the shared scan.
func (ta *TA) Fork() *Fork {
	ta.mustBeDone("Fork")
	return &Fork{
		scanState: ta.scanState.clone(),
		arena:     projArena{qlen: ta.q.Len()},
		result:    ta.Result(),
		cands:     slices.Clone(ta.Candidates()),
	}
}

// ForkView is Fork behind the View interface — the shape region
// computation (core.Runner) consumes for its per-dimension isolation.
func (ta *TA) ForkView() View { return ta.Fork() }

// Fork is an isolated resumable continuation of a completed TA run; see
// TA.Fork. It implements View.
type Fork struct {
	scanState
	arena  projArena
	result []Scored
	cands  []Scored
}

// Result returns the ranked top-k of the parent run (shared, read-only).
func (f *Fork) Result() []Scored { return f.result }

// Candidates returns this fork's view of C(q): the parent's candidates
// at fork time plus this fork's own Resume pulls.
func (f *Fork) Candidates() []Scored { return f.cands }

// Resume continues this fork's scan until one new tuple is encountered,
// appending it to the fork's candidate list. ok=false at exhaustion.
func (f *Fork) Resume() (Scored, bool) {
	for {
		p, _, isNew, ok := f.rawStep()
		if !ok {
			return Scored{}, false
		}
		if isNew {
			sc := f.score(p.ID, &f.arena)
			f.cands = append(f.cands, sc)
			return sc, true
		}
	}
}

func (ta *TA) mustBeDone(op string) {
	if ta.sc == nil {
		panic("topk: " + op + " after Release")
	}
	if !ta.done {
		panic("topk: " + op + " before Run")
	}
}

// sortScored orders by descending score, ties by ascending id, giving
// deterministic ranked lists.
func sortScored(s []Scored) {
	slices.SortFunc(s, func(a, b Scored) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		default:
			return 0
		}
	})
}

// TopKNaive computes the exact ranked top-k by scoring every tuple — the
// correctness oracle for TA and the reference the brute-force region
// oracle builds on.
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
	sortScored(all)
	if k > len(all) {
		k = len(all)
	}
	return all[:k]
}
