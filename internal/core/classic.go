package core

import (
	"slices"

	"repro/internal/topk"
)

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

// boundState accumulates the φ=0 immutable region of one dimension.
type boundState struct {
	lo, hi float64
	leftP  *Perturbation
	rightP *Perturbation
}

// applyUpper tightens the upper bound to crit if smaller, recording the
// perturbation that materializes there.
func (b *boundState) applyUpper(crit float64, p Perturbation) {
	if crit < b.hi {
		b.hi = crit
		p.Delta = crit
		b.rightP = &p
	}
}

// applyLower tightens the lower bound to crit if larger.
func (b *boundState) applyLower(crit float64, p Perturbation) {
	if crit > b.lo {
		b.lo = crit
		p.Delta = crit
		b.leftP = &p
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
	if b.rightP != nil {
		r.Right = []Perturbation{*b.rightP}
	}
	if b.leftP != nil {
		r.Left = []Perturbation{*b.leftP}
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

// fullSet returns all current candidates in decreasing score order (the
// order C(q) is maintained in). The sorted copy is cached and reused
// until the candidate list grows (it only ever grows, so an unchanged
// length implies unchanged content): Thres/CPT consult it once per
// dimension and side, and re-sorting |C| 40-byte entries each time
// dominated Phase 2 before caching.
func (c *dimComputer) fullSet() []topk.Scored {
	cands := c.view.Candidates()
	if len(cands) != c.cachedLen || (c.cachedFull == nil && len(cands) > 0) {
		c.cachedFull = sortScoreDesc(c.sc.full, cands)
		c.sc.full = c.cachedFull
		c.cachedLen = len(cands)
	}
	return c.cachedFull
}

// filterClasses selects a dimension-jx pruned view of the candidate
// list per the three classes of §5.1 — C0 (zero on jx), CH (non-zero
// only on jx), CL (non-zero on jx and elsewhere) — keeping every CL
// entry plus the first keep0 C0 and keepH CH entries. The full list is
// already in the (score desc, id asc) total order and a subsequence of
// a sorted list is sorted, so this one filter pass produces exactly
// what materializing the classes and re-sorting would. The view lives
// in the scratch's one filter buffer: it is valid until the next
// filterClasses call, which is all Phase 2 needs (one set per dimension
// and side at a time).
func (c *dimComputer) filterClasses(jx, keep0, keepH int) []topk.Scored {
	bit := uint64(1) << uint(jx)
	n0, nh := 0, 0
	out := c.sc.filtered[:0]
	for _, cd := range c.fullSet() {
		switch {
		case cd.NZMask&bit == 0:
			if n0 < keep0 {
				n0++
				out = append(out, cd)
			}
		case cd.NZMask == bit:
			if nh < keepH {
				nh++
				out = append(out, cd)
			}
		default:
			out = append(out, cd)
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
func (c *dimComputer) prunedSet(jx, phi int) []topk.Scored {
	return c.filterClasses(jx, phi+1, phi+1)
}

// phase2Evaluate checks every candidate in set against the k-th result
// tuple (Scan's Phase 2; also Prune's, on the reduced set).
func (c *dimComputer) phase2Evaluate(jx int, set []topk.Scored, b *boundState) {
	dk := c.dk()
	dkj := dk.Proj[jx]
	for _, cd := range set {
		if c.stop() {
			return
		}
		proj := c.evaluate(jx, cd)
		crit, kind := lemma1(dk.Score, dkj, cd.Score, proj[jx])
		b.apply(crit, kind, Perturbation{Above: dk.ID, Below: cd.ID, Entry: true})
	}
}

// phase2Threshold is Algorithm 3: the 3-list round-robin probe of SLS
// (score-descending), SLj↑ (coordinates below dkj, ascending) and SLj↓
// (coordinates above dkj, descending) with the dual termination test per
// bound. Entries already evaluated in this dimension are skipped both
// when pulling and when reading thresholds (a strictly tighter, still
// safe threshold).
func (c *dimComputer) phase2Threshold(jx int, set []topk.Scored, b *boundState) {
	dk := c.dk()
	dkj := dk.Proj[jx]
	sk := dk.Score

	sls := set // already score-descending
	// SLj↑ and SLj↓ are index lists over set, ordered against a flat
	// coordinate column: sorting 4-byte indices over an 8-byte column is
	// much cheaper than moving 40-byte Scored entries around.
	c.sc.coords = resize(c.sc.coords, len(set))
	c.sc.idxA = resize(c.sc.idxA, len(set))
	c.sc.idxB = resize(c.sc.idxB, len(set))
	coords, up, down := c.sc.coords, c.sc.idxA[:0], c.sc.idxB[:0]
	for i, cd := range set {
		cj := cd.Proj[jx]
		coords[i] = cj
		switch {
		case cj < dkj:
			up = append(up, int32(i))
		case cj > dkj:
			down = append(down, int32(i))
		}
	}
	sortIdxByCoord(up, coords, set, true)    // SLj↑: ascending coordinate
	sortIdxByCoord(down, coords, set, false) // SLj↓: descending coordinate

	iS, iUp, iDown := 0, 0, 0
	activeL, activeU := true, true

	evalPull := func(cd topk.Scored) (coord float64) {
		proj := c.evaluate(jx, cd)
		return proj[jx]
	}
	update := func(cd topk.Scored, coord float64, side int) {
		crit, kind := lemma1(sk, dkj, cd.Score, coord)
		if side != 0 && kind != side {
			return
		}
		b.apply(crit, kind, Perturbation{Above: dk.ID, Below: cd.ID, Entry: true})
	}

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
			sc, ok := c.nextUneval(sls, &iS)
			if !ok {
				return // every candidate evaluated: both searches complete
			}
			coord := evalPull(sc)
			if coord < dkj && activeL {
				update(sc, coord, -1)
			} else if coord > dkj && activeU {
				update(sc, coord, +1)
			}
		}

		if activeL {
			activeL = c.stepSide(set, coords, up, &iS, &iUp, -1, sk, dkj, b, update, evalPull)
		}
		if activeU {
			activeU = c.stepSide(set, coords, down, &iS, &iDown, +1, sk, dkj, b, update, evalPull)
		}
	}
}

// stepSide performs one side's termination test and, if still active,
// one pull from its coordinate list (Alg. 3 lines 9–14 for the lower
// bound on SLj↑, side = -1; lines 15–20 for the upper on SLj↓,
// side = +1). It returns the updated active flag.
func (c *dimComputer) stepSide(set []topk.Scored, coords []float64, idx []int32, iS, iJ *int, side int, sk, dkj float64, b *boundState, update func(topk.Scored, float64, int), evalPull func(topk.Scored) float64) bool {
	ni, okJ := c.peekUnevalIdx(set, idx, *iJ)
	if !okJ || (side < 0 && coords[ni] >= dkj) || (side > 0 && coords[ni] <= dkj) {
		return false // candidates on dk's side of the list exhausted
	}
	tS, okS := c.peekUneval(set, *iS)
	if !okS {
		return false
	}
	crit := (sk - tS.Score) / (coords[ni] - dkj)
	if (side < 0 && crit <= b.lo) || (side > 0 && crit >= b.hi) {
		return false // no unseen candidate can tighten this bound
	}
	i, ok := c.nextUnevalIdx(set, idx, iJ)
	if !ok {
		return false
	}
	sc := set[i]
	coord := evalPull(sc)
	update(sc, coord, side)
	return true
}

// peekUneval returns the first not-yet-evaluated entry at or after *i.
func (c *dimComputer) peekUneval(list []topk.Scored, i int) (topk.Scored, bool) {
	for ; i < len(list); i++ {
		if !c.sc.eval.contains(list[i].ID) {
			return list[i], true
		}
	}
	return topk.Scored{}, false
}

// nextUneval consumes and returns the first not-yet-evaluated entry.
func (c *dimComputer) nextUneval(list []topk.Scored, i *int) (topk.Scored, bool) {
	for ; *i < len(list); *i++ {
		if !c.sc.eval.contains(list[*i].ID) {
			sc := list[*i]
			*i++
			return sc, true
		}
	}
	return topk.Scored{}, false
}

// peekUnevalIdx is peekUneval over an index list: it returns the first
// index (into set) at or after position i whose entry is unevaluated.
func (c *dimComputer) peekUnevalIdx(set []topk.Scored, idx []int32, i int) (int32, bool) {
	for ; i < len(idx); i++ {
		if !c.sc.eval.contains(set[idx[i]].ID) {
			return idx[i], true
		}
	}
	return 0, false
}

// nextUnevalIdx consumes and returns the first unevaluated index.
func (c *dimComputer) nextUnevalIdx(set []topk.Scored, idx []int32, i *int) (int32, bool) {
	for ; *i < len(idx); *i++ {
		if !c.sc.eval.contains(set[idx[*i]].ID) {
			v := idx[*i]
			*i++
			return v, true
		}
	}
	return 0, false
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

	sBar := sk + b.hi*dkj
	sUnd := sk + b.lo*dkj
	c.sc.thr = resize(c.sc.thr, c.q.Len())
	t := c.sc.thr // reused across resume checks
	for {
		if c.stop() {
			return
		}
		c.view.ThresholdsInto(t)
		sumOther := 0.0
		for i, ti := range t {
			if i != jx {
				sumOther += c.q.Weights[i] * ti
			}
		}
		tj := t[jx]
		condL := sumOther+(qj+b.lo)*tj > sUnd
		condU := needUpper && sumOther+(qj+b.hi)*tj > sBar
		if !condL && !condU {
			return
		}
		sc, ok := c.view.Resume()
		if !ok {
			return
		}
		c.met.Phase3Pulled++
		proj := c.noteEvaluated(jx, sc)
		crit, kind := lemma1(sk, dkj, sc.Score, proj[jx])
		b.apply(crit, kind, Perturbation{Above: dk.ID, Below: sc.ID, Entry: true})
		sBar = sk + b.hi*dkj
		sUnd = sk + b.lo*dkj
	}
}

// sortIdxByCoord orders an index list over set by the flat coordinate
// column — ascending when asc, else descending — with ties broken by
// ascending tuple id. Both the classic and envelope Phase-2 paths build
// their SLj lists with this one ordering.
func sortIdxByCoord(idx []int32, coords []float64, set []topk.Scored, asc bool) {
	slices.SortFunc(idx, func(a, b int32) int {
		av, bv := coords[a], coords[b]
		if av != bv {
			if (av < bv) == asc {
				return -1
			}
			return 1
		}
		return set[a].ID - set[b].ID
	})
}

// sortScoreDesc returns a copy of s, written over buf, ordered by
// decreasing score (ties by ascending id) — the canonical C(q) order.
func sortScoreDesc(buf, s []topk.Scored) []topk.Scored {
	out := append(buf[:0], s...)
	slices.SortFunc(out, func(a, b topk.Scored) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		default:
			return a.ID - b.ID
		}
	})
	return out
}
