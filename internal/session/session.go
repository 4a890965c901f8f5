// Package session implements the paper's §1 motivating workflow as a
// client-side component: an iterative query-refinement session that uses
// immutable regions the way moving-object systems use safe regions (§2)
// — as long as the weight vector stays inside a region known to preserve
// the result, no server-side recomputation is needed.
//
// Three outcomes are possible for a weight adjustment, from cheapest to
// most expensive:
//
//   - safe skip: the cumulative deviation since the last analysis stays
//     inside the concurrent-modification safe region (footnote 1's
//     cross-polytope) — the result provably cannot have changed.
//   - local hit: the adjustment moves a single weight past bounds whose
//     perturbations were precomputed (φ > 0 schedules) — the new result
//     is produced locally by replaying them, no query needed.
//   - recompute: anything else re-runs TA + region computation.
package session

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/vec"
)

// Analyzer abstracts the query engine (repro.Engine satisfies it via a
// closure; tests inject fakes).
type Analyzer func(q vec.Query, k int, opts core.Options) (*core.Output, error)

// Stats counts how each adjustment was served.
type Stats struct {
	SafeSkips  int // proven unchanged without any work
	LocalHits  int // answered from the precomputed perturbation schedule
	Recomputes int // full analyses (including the initial one)
}

// Session is an interactive refinement session over one query.
type Session struct {
	analyze Analyzer
	k       int
	opts    core.Options

	q        vec.Query
	analysis *core.Output
	ranked   []int
	// cumDevs tracks the weight deviations accumulated since the last
	// full analysis, parallel to q.Dims.
	cumDevs []float64
	// stale is set by Invalidate: the dataset changed under the session,
	// so the cached analysis certifies nothing and the next adjustment
	// must recompute.
	stale bool
	stats Stats
}

// New starts a session: runs the initial analysis with the given method
// and perturbation budget φ (φ > 0 enables local hits).
func New(analyze Analyzer, q vec.Query, k int, opts core.Options) (*Session, error) {
	s := &Session{analyze: analyze, k: k, opts: opts, q: q.Clone()}
	if err := s.recompute(); err != nil {
		return nil, err
	}
	return s, nil
}

// recompute re-runs the full analysis at the current weights.
func (s *Session) recompute() error {
	out, err := s.analyze(s.q, s.k, s.opts)
	if err != nil {
		return err
	}
	s.analysis = out
	s.ranked = out.RankedIDs()
	s.cumDevs = make([]float64, s.q.Len())
	s.stats.Recomputes++
	return nil
}

// Query returns the current weight vector.
func (s *Session) Query() vec.Query { return s.q.Clone() }

// Result returns the current ranked result ids.
func (s *Session) Result() []int { return append([]int(nil), s.ranked...) }

// Stats returns the adjustment accounting.
func (s *Session) Stats() Stats { return s.stats }

// Invalidate marks the session's analysis stale — the client-side
// reaction to a server-side data update, which voids every safe-region
// and perturbation-schedule guarantee the session holds. Result
// keeps reporting the stale state until the next AdjustWeight,
// which recomputes unconditionally.
func (s *Session) Invalidate() { s.stale = true }

// AdjustWeight shifts the weight of dim by delta and returns whether the
// ranked result changed. The session serves the adjustment by the
// cheapest sound mechanism available.
func (s *Session) AdjustWeight(dim int, delta float64) (changed bool, err error) {
	jx := s.q.Pos(dim)
	if jx < 0 {
		return false, fmt.Errorf("session: dimension %d is not a query dimension", dim)
	}
	w := s.q.Weights[jx] + delta
	if w < 0 || w > 1 {
		return false, fmt.Errorf("session: weight %v for dim %d outside [0,1]", w, dim)
	}

	// 0. Stale session (Invalidate was called): no cached guarantee
	// holds, recompute at the adjusted weights.
	if s.stale {
		before := s.ranked
		s.q.Weights[jx] = w
		if err := s.recompute(); err != nil {
			return false, err
		}
		s.stale = false
		return !equalIDs(before, s.ranked), nil
	}

	// 1. Safe skip: cumulative deviation still inside the concurrent
	// safe region of the last analysis. The guarantee is relative to the
	// analysis-time result — if a local hit had moved the session onto a
	// perturbed result, coming back into the safe region restores the
	// base result.
	tentative := append([]float64(nil), s.cumDevs...)
	tentative[jx] += delta
	if safe, err := core.SafeConcurrent(s.analysis.Regions, tentative); err == nil && safe {
		s.q.Weights[jx] = w
		s.cumDevs = tentative
		base := s.analysis.RankedIDs()
		changed = !equalIDs(base, s.ranked)
		s.ranked = base
		s.stats.SafeSkips++
		return changed, nil
	}

	// 2. Local hit: a pure single-dimension move whose crossing bounds
	// all carry precomputed perturbations.
	if pureSingle(s.cumDevs, jx) {
		if ranked, ok := s.replaySchedule(jx, s.cumDevs[jx]+delta); ok {
			s.q.Weights[jx] = w
			s.cumDevs[jx] += delta
			changed = !equalIDs(ranked, s.ranked)
			s.ranked = ranked
			s.stats.LocalHits++
			return changed, nil
		}
	}

	// 3. Recompute.
	before := s.ranked
	s.q.Weights[jx] = w
	if err := s.recompute(); err != nil {
		return false, err
	}
	return !equalIDs(before, s.ranked), nil
}

// replaySchedule derives the ranked result at total single-dimension
// deviation dev from the precomputed perturbations, if dev is covered by
// them. Covered means dev crosses only known bounds: if all φ+1 events
// of the side were found and dev runs past the last one, the state out
// there is unknown and a recompute is required. A side with fewer than
// φ+1 events is fully resolved — past its last event the result holds to
// the domain edge.
func (s *Session) replaySchedule(jx int, dev float64) ([]int, bool) {
	reg := s.analysis.Regions[jx]
	base := s.analysis.RankedIDs()
	perts := reg.Right
	right := true
	if dev < 0 {
		perts = reg.Left
		right = false
	}
	crossed := 0
	for _, p := range perts {
		if (right && dev > p.Delta) || (!right && dev < p.Delta) {
			crossed++
		}
	}
	if crossed == 0 {
		return base, true
	}
	if crossed == len(perts) && len(perts) == s.opts.Phi+1 {
		return nil, false // ran past the known horizon
	}
	out, err := reg.ResultAfter(base, right, crossed-1)
	if err != nil {
		return nil, false
	}
	return out, true
}

// pureSingle reports whether every accumulated deviation except jx is 0.
func pureSingle(devs []float64, jx int) bool {
	for i, d := range devs {
		if i != jx && d != 0 {
			return false
		}
	}
	return true
}

func equalIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
