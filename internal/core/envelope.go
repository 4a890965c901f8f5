package core

import (
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/topk"
)

// boundary tracks the evolving result boundary of §6 on one side of the
// current weight: every relevant tuple is a line y = score + x·coord in
// score–deviation space (x mirrored for negative deviations), the
// boundary is the k-th–highest envelope of the accepted lines, and the
// perturbation events are the line crossings that touch the top-k. The
// horizon is the (φ+1)-th event — deviations past it are irrelevant.
type boundary struct {
	k, phi    int
	compOnly  bool
	domainEnd float64
	lines     []geom.Line
	events    []Perturbation // ascending x (pre-mirror deltas)
	horizon   float64
	env       geom.PiecewiseLinear
	decided   float64 // the shortest horizon this pass decided under (settle)
}

// resultLines are the k result lines of dimension jx on one side.
// mirror=true builds the negative-deviation side: slopes are negated so
// that the sweep always advances in +x.
func resultLines(res []topk.Scored, jx int, mirror bool) []geom.Line {
	lines := make([]geom.Line, len(res))
	for i, r := range res {
		coord := r.Proj[jx]
		if mirror {
			coord = -coord
		}
		lines[i] = geom.Line{A: r.Score, B: coord, ID: r.ID}
	}
	return lines
}

// newBoundary seeds a boundary with the k result lines.
func newBoundary(res []topk.Scored, jx, phi int, domainEnd float64, mirror, compOnly bool) *boundary {
	b := &boundary{k: len(res), phi: phi, compOnly: compOnly, domainEnd: domainEnd,
		lines: resultLines(res, jx, mirror)}
	b.rebuild()
	return b
}

// rebuild recomputes the perturbation events and the k-th envelope after
// a membership change. Crossings strictly below the top-k are ignored;
// a crossing at ranks (k-1, k) is an entry (composition change).
func (b *boundary) rebuild() {
	sw := geom.NewSweep(b.lines, 0, b.domainEnd)
	b.events = b.events[:0]
	b.horizon = b.domainEnd
	for {
		cr, ok := sw.Next()
		if !ok {
			break
		}
		if cr.RankAbove > b.k-1 {
			continue
		}
		entry := cr.RankAbove == b.k-1
		if b.compOnly && !entry {
			continue
		}
		b.events = append(b.events, Perturbation{
			Delta: cr.X,
			Above: b.lines[cr.I].ID,
			Below: b.lines[cr.J].ID,
			Entry: entry,
		})
		if len(b.events) == b.phi+1 {
			b.horizon = cr.X
			break
		}
	}
	b.env = geom.KthEnvelope(b.lines, b.k, 0, b.horizon)
}

// consider tests whether a candidate line can climb above the boundary
// within the horizon; if so it joins the tracked set (coord pre-mirrored
// by the caller) unless it is there already. The k-th envelope only
// rises as lines are added, but for φ > 0 the horizon may not fall (an
// early entry can push later events out of the top k), so a rejection
// holds only within the horizon it was decided under: decide records it.
func (b *boundary) consider(id int, score, coord float64) bool {
	ln := geom.Line{A: score, B: coord, ID: id}
	x, ok := b.env.FirstCrossingAbove(ln)
	if !ok || x >= b.horizon {
		b.decide()
		return false
	}
	if slices.ContainsFunc(b.lines, func(l geom.Line) bool { return l.ID == id }) {
		return true
	}
	b.lines = append(b.lines, ln)
	b.rebuild()
	return true
}

// decide notes a rejection, or a stop, decided under the current
// horizon, and returns true so that it can close the stop's condition.
func (b *boundary) decide() bool {
	b.decided = min(b.decided, b.horizon)
	return true
}

// settle repeats pass — offers to both boundaries — until no horizon has
// outgrown one its rejections or stops were decided under. Tracked lines
// are not added twice, nor are evaluations charged twice (the memo).
func settle(right, left *boundary, pass func()) {
	for stale := true; stale; stale = right.horizon > right.decided || left.horizon > left.decided {
		right.decided, left.decided = math.Inf(1), math.Inf(1)
		pass()
	}
}

// innerBound returns the first perturbation position, or the domain end.
func (b *boundary) innerBound() float64 {
	if len(b.events) > 0 {
		return b.events[0].Delta
	}
	return b.domainEnd
}

// envelopeDim computes up to phi+1 immutable regions per side of
// dimension jx via the §6 machinery.
func (c *dimComputer) envelopeDim(jx, phi int) Regions {
	qj := c.q.Weights[jx]

	// Phase 1: plane-sweep the k result lines for the interim events.
	t0 := stopwatch()
	right := newBoundary(c.res, jx, phi, 1-qj, false, c.opts.CompositionOnly)
	left := newBoundary(c.res, jx, phi, qj, true, c.opts.CompositionOnly)
	c.met.Phase1 += t0()

	settle(right, left, func() {
		// Phase 2: per-side pruning (Lemma 4) and thresholding.
		t1 := stopwatch()
		c.envelopeSide(jx, phi, right, false)
		c.envelopeSide(jx, phi, left, true)
		c.met.Phase2 += t1()

		// Phase 3: resume TA until the unseen-tuple cap line clears both
		// envelopes.
		t2 := stopwatch()
		c.envelopePhase3(jx, right, left)
		c.met.Phase3 += t2()
	})

	return assembleRegions(c.q.Dims[jx], jx, qj, right, left)
}

// assembleRegions converts the two boundaries into the reported Regions
// (left-side deltas un-mirrored to negative values).
func assembleRegions(dim, jx int, qj float64, right, left *boundary) Regions {
	reg := Regions{Dim: dim, QPos: jx, Hi: right.innerBound(), Lo: -left.innerBound()}
	reg.Right = append(reg.Right, right.events...)
	for _, p := range left.events {
		p.Delta = -p.Delta
		reg.Left = append(reg.Left, p)
	}
	return reg
}

// sideSet selects the candidates Phase 2 examines on one side: Lemma 4
// keeps, besides all of CL, only the φ+1 highest-coordinate CH tuples on
// the positive side and the φ+1 best-scoring C0 tuples on the negative
// side. Scan/Thres take everything.
func (c *dimComputer) sideSet(jx, phi int, mirror bool) []int32 {
	switch c.opts.Method {
	case MethodScan, MethodThres:
		return c.fullSet()
	}
	if mirror {
		return c.filterClasses(jx, phi+1, 0)
	}
	return c.filterClasses(jx, 0, phi+1)
}

// envelopeSide runs Phase 2 on one boundary. Scan/Prune evaluate their
// whole set; Thres/CPT probe the score list and the coordinate list
// round-robin and stop once the unseen-candidate cap line lies below the
// envelope everywhere within the horizon.
func (c *dimComputer) envelopeSide(jx, phi int, bd *boundary, mirror bool) {
	set := c.sideSet(jx, phi, mirror)
	rows := c.rows
	sgn := 1.0
	if mirror {
		sgn = -1
	}
	// offer evaluates a candidate and shows its line to this boundary.
	offer := func(p int32) {
		c.evaluate(jx, p)
		bd.consider(c.id(p), rows.Score(p), sgn*rows.Coord(p, jx))
	}
	switch c.opts.Method {
	case MethodScan, MethodPrune:
		for _, p := range set {
			if c.stop() {
				return
			}
			offer(p)
		}
		return
	}

	dkj := c.dk().Proj[jx]
	// SLS is set itself (score-descending, probed by position); SLj holds
	// positions within set, ordered against a flat coordinate column —
	// SLj↑ (mirror): ascending coordinate; SLj↓: descending.
	c.sc.coords = resize(c.sc.coords, len(set))
	c.sc.idxA = resize(c.sc.idxA, len(set))
	c.sc.processed = resize(c.sc.processed, len(set))
	coords := c.sc.coords
	list := slj{idx: c.sc.idxA[:0], coords: coords, set: set, rows: rows, asc: mirror}
	for i, p := range set {
		cj := rows.Coord(p, jx)
		coords[i] = cj
		if (!mirror && cj > dkj) || (mirror && cj < dkj) {
			list.idx = append(list.idx, int32(i))
		}
	}
	list.heapify()

	// processed tracks set entries already offered to THIS boundary; the
	// fetch memo is shared across sides so a tuple's random read is
	// charged once per dimension, but each side must still offer its own
	// view of the tuple to its own boundary.
	processed := c.sc.processed
	clear(processed)
	iS := 0
	done := func() bool {
		if !firstUnprocessed(processed, &iS) {
			return true // every candidate on this side processed
		}
		// Cap slope: the next coordinate key while the coordinate list
		// has unprocessed entries, then dkj (all remaining coordinates
		// are on dk's other side and bounded by it).
		slope := dkj
		if nxt, ok := list.peek(processed); ok {
			slope = coords[nxt]
		}
		return bd.env.AboveLine(geom.Line{A: rows.Score(set[iS]), B: sgn * slope}) && bd.decide()
	}
	slsPulls := 1
	if c.opts.Schedule == ScheduleScoreBiased {
		slsPulls = 2
	}
	for {
		if c.stop() {
			return
		}
		for p := 0; p < slsPulls; p++ {
			if done() {
				return
			}
			processed[iS] = true // done left iS on the top unprocessed entry
			offer(set[iS])
		}
		if done() {
			return
		}
		if i, ok := list.peek(processed); ok {
			processed[i] = true
			offer(set[i])
		}
	}
}

// envelopePhase3 resumes the TA scan until the threshold line
// y = Σ qi·ti + tj·x (constant on the mirrored side, since coordinates
// are non-negative) no longer intersects either envelope (§6 Phase 3).
func (c *dimComputer) envelopePhase3(jx int, right, left *boundary) {
	c.sc.thr = resize(c.sc.thr, c.q.Len())
	t := c.sc.thr // reused across resume checks
	for {
		if c.stop() {
			return
		}
		c.view.ThresholdsInto(t)
		base := 0.0
		for i, ti := range t {
			base += c.q.Weights[i] * ti
		}
		capR := geom.Line{A: base, B: t[jx]}
		capL := geom.Line{A: base, B: 0}
		if right.env.AboveLine(capR) && left.env.AboveLine(capL) && right.decide() && left.decide() {
			return
		}
		p, ok := c.view.Resume()
		if !ok {
			return
		}
		c.met.Phase3Pulled++
		c.noteEvaluated(jx)
		id, score, coord := c.id(p), c.rows.Score(p), c.rows.Coord(p, jx)
		right.consider(id, score, coord)
		left.consider(id, score, -coord)
	}
}

// iterativeDim is the Fig. 15 baseline: answer a φ>0 request by φ+1
// successive single-region computations, re-processing the candidate
// lists from scratch every round (the "iterative re-processing" cost §4
// calls out). The final round's answer is complete; the metrics
// accumulate the waste of all rounds.
func (c *dimComputer) iterativeDim(jx int) Regions {
	var reg Regions
	for r := 0; r <= c.opts.Phi; r++ {
		if c.failed() != nil {
			return reg
		}
		c.sc.resetEval() // refetch everything
		reg = c.envelopeDim(jx, r)
	}
	return reg
}
