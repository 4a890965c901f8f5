package core

import "repro/internal/topk"

// lemma1 returns the critical deviation at which `below` catches up with
// `above` when the weight of the inspected dimension changes (Lemma 1),
// along with which bound it constrains: +1 the upper (Formula 2), -1 the
// lower (Formula 3), 0 neither (parallel score lines).
func lemma1(aboveScore, aboveCoord, belowScore, belowCoord float64) (float64, int) {
	diff := belowCoord - aboveCoord
	switch {
	case diff > 0:
		return (aboveScore - belowScore) / diff, +1
	case diff < 0:
		return (aboveScore - belowScore) / diff, -1
	default:
		return 0, 0
	}
}

// boundState accumulates the φ=0 immutable region of one dimension. The
// perturbations are held by value: Scan offers one per candidate, and a
// pointer would send each of them to the heap.
type boundState struct {
	lo, hi            float64
	leftP, rightP     Perturbation
	hasLeft, hasRight bool
}

// applyUpper tightens the upper bound to crit if smaller, recording the
// perturbation that materializes there.
func (b *boundState) applyUpper(crit float64, p Perturbation) {
	if crit < b.hi {
		b.hi = crit
		p.Delta = crit
		b.rightP, b.hasRight = p, true
	}
}

// applyLower tightens the lower bound to crit if larger.
func (b *boundState) applyLower(crit float64, p Perturbation) {
	if crit > b.lo {
		b.lo = crit
		p.Delta = crit
		b.leftP, b.hasLeft = p, true
	}
}

// apply dispatches a Lemma-1 outcome to the matching bound.
func (b *boundState) apply(crit float64, kind int, p Perturbation) {
	switch kind {
	case +1:
		b.applyUpper(crit, p)
	case -1:
		b.applyLower(crit, p)
	}
}

// regions materializes the boundState into the reported Regions.
func (b *boundState) regions(dim, qpos int) Regions {
	r := Regions{Dim: dim, QPos: qpos, Lo: b.lo, Hi: b.hi}
	if b.hasRight {
		r.Right = []Perturbation{b.rightP}
	}
	if b.hasLeft {
		r.Left = []Perturbation{b.leftP}
	}
	return r
}

// classicDim runs the three-phase φ=0 pipeline (§4, §5) on one dimension.
func (c *dimComputer) classicDim(jx int) Regions {
	qj := c.q.Weights[jx]
	b := &boundState{lo: -qj, hi: 1 - qj}

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
	c.met.Phase3 += t2()

	return b.regions(c.q.Dims[jx], jx)
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
		crit, kind := lemma1(above.Score, above.Proj[jx], below.Score, below.Proj[jx])
		b.apply(crit, kind, Perturbation{Above: above.ID, Below: below.ID})
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
		crit, kind := lemma1(dk.Score, dkj, c.rows.Score(p), c.rows.Coord(p, jx))
		b.apply(crit, kind, Perturbation{Above: dk.ID, Below: c.id(p), Entry: true})
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
			crit, kind := lemma1(sk, dkj, rows.Score(set[i]), coords[i])
			b.apply(crit, kind, Perturbation{Above: dk.ID, Below: c.id(set[i]), Entry: true})
		}
	}
	// stepSide performs one side's termination test and, if still active,
	// one pull from its coordinate list (Alg. 3 lines 9–14 for the lower
	// bound on SLj↑, lines 15–20 for the upper on SLj↓). It returns the
	// updated active flag.
	iS := 0
	stepSide := func(h *slj) bool {
		ni, ok := h.peek(processed)
		if !ok || !firstUnprocessed(processed, len(set), &iS) {
			return false // this side of dk, or the whole set, is exhausted
		}
		crit := (sk - rows.Score(set[iS])) / (coords[ni] - dkj)
		if (h.asc && crit <= b.lo) || (!h.asc && crit >= b.hi) {
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
			activeL = stepSide(&up)
		}
		if activeU {
			activeU = stepSide(&down)
		}
	}
}

// phase3 (Algorithm 2) resumes the TA scan to rule out — or account for —
// tuples never encountered. The upper side is skipped when dk's posting
// in list jx was consumed by sorted access (§4: all higher-coordinate
// tuples were then already encountered).
func (c *dimComputer) phase3(jx int, b *boundState) {
	dk := c.dk()
	dkj := dk.Proj[jx]
	sk := dk.Score
	qj := c.q.Weights[jx]
	needUpper := !c.view.WasSortedAccessed(jx, dk.ID, dkj)

	sBar := sk + float64(b.hi*dkj)
	sUnd := sk + float64(b.lo*dkj)
	t := c.sc.thr // reused across resume checks
	for {
		if c.stop() {
			return
		}
		c.view.ThresholdsInto(t)
		sumOther := 0.0
		for i, ti := range t {
			if i != jx {
				sumOther += float64(c.q.Weights[i] * ti)
			}
		}
		tj := t[jx]
		condL := sumOther+float64((qj+b.lo)*tj) > sUnd
		condU := needUpper && sumOther+float64((qj+b.hi)*tj) > sBar
		if !condL && !condU {
			return
		}
		p, ok := c.view.Resume()
		if !ok {
			return
		}
		c.met.Phase3Pulled++
		c.noteEvaluated(jx)
		crit, kind := lemma1(sk, dkj, c.rows.Score(p), c.rows.Coord(p, jx))
		b.apply(crit, kind, Perturbation{Above: dk.ID, Below: c.id(p), Entry: true})
		sBar = sk + float64(b.hi*dkj)
		sUnd = sk + float64(b.lo*dkj)
	}
}
