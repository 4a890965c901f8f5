package core

import (
	"repro/internal/geom"
	"repro/internal/topk"
)

// lemma1 returns where `below` catches up with `above` when the weight
// of the inspected dimension changes (Lemma 1), exactly, along with which
// bound it constrains: +1 the upper (Formula 2), -1 the lower (Formula
// 3), 0 neither (parallel score lines). A lower-bound crossing is at the
// mirrored deviation −δ, so on both sides it lies at x ≥ 0.
func lemma1(aboveScore, aboveCoord, belowScore, belowCoord float64) (geom.X, int) {
	switch {
	case belowCoord > aboveCoord:
		return geom.X{P: geom.Line{A: aboveScore, B: aboveCoord}, Q: geom.Line{A: belowScore, B: belowCoord}}, +1
	case belowCoord < aboveCoord:
		return geom.X{P: geom.Line{A: aboveScore, B: -aboveCoord}, Q: geom.Line{A: belowScore, B: -belowCoord}}, -1
	default:
		return geom.X{}, 0
	}
}

// bound is one side of the φ=0 region: the first crossing offered so
// far in the canonical order — exact position (mirrored on the lower
// side), then the id of the line moving up, then of the line moving
// down — or, while none is, the domain edge, where a crossing is no
// perturbation. The perturbation is held by value: Scan offers one per
// candidate, and a pointer would send each of them to the heap.
type bound struct {
	at  geom.X
	p   Perturbation
	set bool
}

// offer makes the crossing of p.Below over p.Above at x the bound if it
// comes first.
func (b *bound) offer(x geom.X, p Perturbation) {
	c := geom.Cmp(x, b.at)
	if c < 0 || c == 0 && b.set && (p.Below < b.p.Below || p.Below == b.p.Below && p.Above < b.p.Above) {
		b.at, b.p, b.set = x, p, true
	}
}

// reaches reports whether a line below dk at 0 and nowhere above cap
// could cross dk no later than the bound: cap is not below dk there (a
// tie at a crossing bound goes to the ids, one at the domain edge is no
// perturbation). Lines are mirrored on the lower side, as at.
func (b *bound) reaches(cap, dk geom.Line) bool {
	s := geom.Sign(cap, dk, b.at)
	return s > 0 || s == 0 && b.set
}

// delta returns the bound as a deviation magnitude, rounded inward.
func (b *bound) delta(edge float64) float64 {
	if !b.set {
		return edge
	}
	return b.at.Floor()
}

// boundState accumulates the φ=0 immutable region of one dimension.
type boundState struct {
	hi, lo bound
}

// newBoundState starts both bounds at the domain edges 1 − qj and −qj.
func newBoundState(qj float64) *boundState {
	return &boundState{hi: bound{at: geom.At(1 - qj)}, lo: bound{at: geom.At(qj)}}
}

// apply dispatches a Lemma-1 outcome to the matching bound.
func (b *boundState) apply(x geom.X, kind int, p Perturbation) {
	switch kind {
	case +1:
		b.hi.offer(x, p)
	case -1:
		b.lo.offer(x, p)
	}
}

// regions materializes the boundState into the reported Regions.
func (b *boundState) regions(dim, qpos int, qj float64) Regions {
	r := Regions{Dim: dim, QPos: qpos, Lo: -b.lo.delta(qj), Hi: b.hi.delta(1 - qj)}
	if b.hi.set {
		p := b.hi.p
		p.Delta = r.Hi
		r.Right = []Perturbation{p}
	}
	if b.lo.set {
		p := b.lo.p
		p.Delta = r.Lo
		r.Left = []Perturbation{p}
	}
	return r
}

// classicDim runs the three-phase φ=0 pipeline (§4, §5) on one dimension.
func (c *dimComputer) classicDim(jx int) Regions {
	qj := c.q.Weights[jx]
	b := newBoundState(qj)

	t0 := stopwatch()
	c.phase1(jx, b)
	c.met.Phase1 += t0()

	t1 := stopwatch()
	switch c.opts.Method {
	case MethodScan:
		c.phase2Evaluate(jx, c.fullSet(), b)
	case MethodPrune:
		c.phase2Evaluate(jx, c.prunedSet(jx, 0), b)
	case MethodThres:
		c.phase2Threshold(jx, c.fullSet(), b)
	case MethodCPT:
		c.phase2Threshold(jx, c.prunedSet(jx, 0), b)
	}
	c.met.Phase2 += t1()

	t2 := stopwatch()
	c.phase3(jx, b)
	if c.opts.Method == MethodPrune || c.opts.Method == MethodCPT {
		dk := c.dk()
		c.offerCH(jx, func(p int32) {
			x, kind := lemma1(dk.Score, dk.Proj[jx], c.rows.Score(p), c.rows.Coord(p, jx))
			b.apply(x, kind, Perturbation{Above: dk.ID, Below: c.id(p), Entry: true})
		})
	}
	c.met.Phase3 += t2()

	return b.regions(c.q.Dims[jx], jx, qj)
}

// phase1 (Algorithm 1) derives the interim region from reorderings among
// consecutive result tuples. (The published pseudo-code's line 5 carries
// a typo, dα−1,j for dα+1,j; the intended comparison is implemented.)
func (c *dimComputer) phase1(jx int, b *boundState) {
	if c.opts.CompositionOnly {
		return
	}
	for a := 0; a+1 < len(c.res); a++ {
		above, below := c.res[a], c.res[a+1]
		x, kind := lemma1(above.Score, above.Proj[jx], below.Score, below.Proj[jx])
		b.apply(x, kind, Perturbation{Above: above.ID, Below: below.ID})
	}
}

// fullSet returns all current candidates in decreasing score order, as
// row positions in the scan's table: the scan's own rank order, which
// it built once when it terminated and extends by merging when Phase 3
// has pulled new rows — nothing is sorted here. The evaluation memo is
// sized here too: every position Phase 2 evaluates comes out of this
// order.
func (c *dimComputer) fullSet() []int32 {
	c.sc.growMark(c.rows.Len())
	order, cut := c.view.Ranking()
	return order[cut:]
}

// filterClasses selects a dimension-jx pruned view of the candidate
// list per the three classes of §5.1 — C0 (zero on jx), CH (non-zero
// only on jx), CL (non-zero on jx and elsewhere) — keeping every CL
// entry plus the first keep0 C0 and keepH CH entries. The full order is
// already in the (score desc, id asc) total order and a subsequence of
// a sorted list is sorted, so this one filter pass produces exactly
// what materializing the classes and re-sorting would. The view lives
// in the scratch's one filter buffer, sized to the full order first so
// that appending never moves it off its span: it is valid until the
// next filterClasses call, which is all Phase 2 needs (one set per
// dimension and side at a time).
func (c *dimComputer) filterClasses(jx, keep0, keepH int) []int32 {
	bit := uint64(1) << uint(jx)
	n0, nh := 0, 0
	full := c.fullSet()
	c.sc.filtered = resize(c.sc.filtered, len(full))
	out := c.sc.filtered[:0]
	for _, p := range full {
		switch mask := c.rows.Mask(p); {
		case mask&bit == 0:
			if n0 < keep0 {
				n0++
				out = append(out, p)
			}
		case mask == bit:
			if nh < keepH {
				nh++
				out = append(out, p)
			}
		default:
			out = append(out, p)
		}
	}
	c.sc.filtered = out
	return out
}

// prunedSet applies Lemmas 2–4: all CL candidates, the φ+1 top-scoring
// C0 candidates (they alone can affect the lower bounds) and the φ+1 CH
// candidates with the highest jx-coordinate (they alone can affect the
// upper bounds). For CH singletons score order equals coordinate order,
// so both representative picks are prefixes of the score-ordered class.
func (c *dimComputer) prunedSet(jx, phi int) []int32 {
	return c.filterClasses(jx, phi+1, phi+1)
}

// offerCH hands every CH candidate of dimension jx to offer, unevaluated.
// Lemma 3 prunes CH from the lower side because, under exact scores,
// every CH line meets 0 at the domain edge δ = −qj, where the weight is
// 0, and so cannot cross d_k inside it. A float64 score moves each line
// by its own rounding, so one can cross d_k just inside the edge — when
// d_k is CH too, or two coordinates nearly tie — and that is an event
// of the exact arrangement. The pruned methods offer those lines after
// Phase 3 without charging an evaluation: the line is the scan's score
// and coordinate, and the score alone fixes a CH tuple's coordinate,
// which is why Lemma 3 needs no fetch.
func (c *dimComputer) offerCH(jx int, offer func(p int32)) {
	bit := uint64(1) << uint(jx)
	for _, p := range c.fullSet() {
		if c.rows.Mask(p) == bit {
			offer(p)
		}
	}
}

// phase2Evaluate checks every candidate in set against the k-th result
// tuple (Scan's Phase 2; also Prune's, on the reduced set).
func (c *dimComputer) phase2Evaluate(jx int, set []int32, b *boundState) {
	dk := c.dk()
	dkj := dk.Proj[jx]
	for _, p := range set {
		if c.stop() {
			return
		}
		c.evaluate(jx, p)
		x, kind := lemma1(dk.Score, dkj, c.rows.Score(p), c.rows.Coord(p, jx))
		b.apply(x, kind, Perturbation{Above: dk.ID, Below: c.id(p), Entry: true})
	}
}

// slj is one coordinate-ordered thresholding list (SLj↑ or SLj↓) over a
// candidate set. Algorithm 3 and the envelope's Phase 2 stop after a
// prefix of it, so it is not sorted: idx, the positions within set of
// the entries on its side of dkj, is heapified once (O(n)) and each pull
// pops the next entry in (coordinate, then tuple id) order — the order a
// full sort would have produced, since ids make it total.
type slj struct {
	idx    []int32
	coords []float64 // jx-coordinate per set entry
	set    []int32
	rows   *topk.Table
	asc    bool // SLj↑: ascending coordinate; SLj↓: descending
}

func (h *slj) before(a, b int32) bool {
	if av, bv := h.coords[a], h.coords[b]; av != bv {
		return (av < bv) == h.asc
	}
	return h.rows.ID(h.set[a]) < h.rows.ID(h.set[b])
}

func (h *slj) heapify() {
	for i := len(h.idx)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

func (h *slj) siftDown(i int) {
	idx := h.idx
	for {
		first := i
		if l := 2*i + 1; l < len(idx) && h.before(idx[l], idx[first]) {
			first = l
		}
		if r := 2*i + 2; r < len(idx) && h.before(idx[r], idx[first]) {
			first = r
		}
		if first == i {
			return
		}
		idx[i], idx[first] = idx[first], idx[i]
		i = first
	}
}

// peek returns the first entry not yet processed, discarding processed
// ones on the way (processed entries stay processed, so they are never
// wanted again).
func (h *slj) peek(processed bitset) (int32, bool) {
	for len(h.idx) > 0 {
		if !processed.has(int(h.idx[0])) {
			return h.idx[0], true
		}
		last := len(h.idx) - 1
		h.idx[0] = h.idx[last]
		h.idx = h.idx[:last]
		h.siftDown(0)
	}
	return 0, false
}

// firstUnprocessed advances *i to the first unprocessed entry of the
// score-ordered set of n entries and reports whether there is one.
func firstUnprocessed(processed bitset, n int, i *int) bool {
	for ; *i < n; *i++ {
		if !processed.has(*i) {
			return true
		}
	}
	return false
}

// phase2Threshold is Algorithm 3: the 3-list round-robin probe of SLS
// (score-descending), SLj↑ (coordinates below dkj, ascending) and SLj↓
// (coordinates above dkj, descending) with the dual termination test per
// bound. Entries one list already pulled are skipped by the others both
// when pulling and when reading thresholds (a strictly tighter, still
// safe threshold).
func (c *dimComputer) phase2Threshold(jx int, set []int32, b *boundState) {
	rows := c.rows
	dk := c.dk()
	dkj := dk.Proj[jx]
	sk := dk.Score

	// SLS is set itself, probed by position. SLj↑ and SLj↓ hold positions
	// within set, ordered against a flat coordinate column; they share
	// one buffer, SLj↑ filling it from the front and SLj↓ from the back
	// (the order a heap starts from does not change the order it pops).
	c.sc.coords = resize(c.sc.coords, len(set))
	c.sc.idx = resize(c.sc.idx, len(set))
	coords, idx, processed := c.sc.coords, c.sc.idx, c.sc.resetProcessed(len(set))
	nUp, nDown := 0, 0
	for i, p := range set {
		cj := rows.Coord(p, jx)
		coords[i] = cj
		switch {
		case cj < dkj:
			idx[nUp] = int32(i)
			nUp++
		case cj > dkj:
			nDown++
			idx[len(idx)-nDown] = int32(i)
		}
	}
	up := slj{idx: idx[:nUp], coords: coords, set: set, rows: rows, asc: true}
	down := slj{idx: idx[len(idx)-nDown:], coords: coords, set: set, rows: rows}
	up.heapify()
	down.heapify()

	// pull evaluates set entry i and, when its side is still searching,
	// tightens that side's bound (Lemma 1 picks the side by coordinate).
	pull := func(i int32, apply bool) {
		processed.set(int(i))
		c.evaluate(jx, set[i])
		if apply {
			x, kind := lemma1(sk, dkj, rows.Score(set[i]), coords[i])
			b.apply(x, kind, Perturbation{Above: dk.ID, Below: c.id(set[i]), Entry: true})
		}
	}
	// stepSide performs one side's termination test and, if still active,
	// one pull from its coordinate list (Alg. 3 lines 9–14 for the lower
	// bound on SLj↑, lines 15–20 for the upper on SLj↓). An unseen
	// candidate scores at most the top of SLS and lies no further from
	// dkj than the head of the list: the cap line of those two crosses dk
	// first. It returns the updated active flag.
	iS := 0
	stepSide := func(h *slj, bd *bound, sgn float64) bool {
		ni, ok := h.peek(processed)
		if !ok || !firstUnprocessed(processed, len(set), &iS) {
			return false // this side of dk, or the whole set, is exhausted
		}
		if !bd.reaches(geom.Line{A: rows.Score(set[iS]), B: sgn * coords[ni]}, geom.Line{A: sk, B: sgn * dkj}) {
			return false // no unseen candidate can tighten this bound
		}
		pull(ni, true)
		return true
	}

	activeL, activeU := true, true
	slsPulls := 1
	if c.opts.Schedule == ScheduleScoreBiased {
		slsPulls = 2
	}
	for activeL || activeU {
		if c.stop() {
			return
		}
		// Pull the top unevaluated candidate(s) from SLS (Alg. 3 lines
		// 4–8; the score-biased schedule draws twice since SLS feeds
		// both searches).
		for p := 0; p < slsPulls; p++ {
			if !firstUnprocessed(processed, len(set), &iS) {
				return // every candidate evaluated: both searches complete
			}
			cj := coords[iS]
			pull(int32(iS), (cj < dkj && activeL) || (cj > dkj && activeU))
		}
		if activeL {
			activeL = stepSide(&up, &b.lo, -1)
		}
		if activeU {
			activeU = stepSide(&down, &b.hi, 1)
		}
	}
}

// phase3 (Algorithm 2) resumes the TA scan to rule out — or account for —
// tuples never encountered. The upper side is skipped when dk's posting
// in list jx was consumed by sorted access (§4: all higher-coordinate
// tuples were then already encountered). An unseen tuple's line lies
// below the cap line Σ qi·ti + δ·tj: its score is at most the
// threshold score, its coordinate at most tj, and qj + δ ≥ 0. Below
// δ = 0 that holds of exact scores; a float64 score is within n·u of
// its exact one (n = qlen sums of rounded products, u = 2⁻⁵³), so the
// lower cap is raised by (2n+4)·u of the threshold score.
func (c *dimComputer) phase3(jx int, b *boundState) {
	dk := c.dk()
	dkj := dk.Proj[jx]
	needUpper := !c.view.WasSortedAccessed(jx, dk.ID, dkj)
	dkHi, dkLo := geom.Line{A: dk.Score, B: dkj}, geom.Line{A: dk.Score, B: -dkj}

	rounding := float64(2*len(c.q.Dims)+4) * 0x1p-53
	t := c.sc.thr // reused across resume checks
	for {
		if c.stop() {
			return
		}
		c.view.ThresholdsInto(t)
		base := 0.0
		for i, ti := range t {
			base += float64(c.q.Weights[i] * ti)
		}
		tj := t[jx]
		condL := b.lo.reaches(geom.Line{A: base + float64(base*rounding), B: -tj}, dkLo)
		condU := needUpper && b.hi.reaches(geom.Line{A: base, B: tj}, dkHi)
		if !condL && !condU {
			return
		}
		p, ok := c.view.Resume()
		if !ok {
			return
		}
		c.met.Phase3Pulled++
		c.noteEvaluated(jx)
		x, kind := lemma1(dk.Score, dkj, c.rows.Score(p), c.rows.Coord(p, jx))
		b.apply(x, kind, Perturbation{Above: dk.ID, Below: c.id(p), Entry: true})
	}
}
