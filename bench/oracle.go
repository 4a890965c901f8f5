package main

import (
	"fmt"
	"sort"

	"repro/internal/vec"
)

// oracleChecks is how many stream requests are re-issued, untimed, after
// each window and checked against the oracle.
const oracleChecks = 200

// probeEps is how far inside and outside a region bound the oracle
// probes, relative to the bound.
const probeEps = 1e-3

// oracle is an exhaustive-scoring reference: it keeps the dataset as
// dense per-dimension columns, scores every tuple, and ranks by (score
// desc, id asc). It stands in for topk.TopKNaive, the repository's
// reference scorer, which a test holds it equal to (ids and scores, bit
// for bit, after writes): one verification makes about 800 exhaustive
// rankings, and over the 200 000 ST tuples TopKNaive takes 72 ms for
// each (it allocates a projection per tuple and sorts them all), 58 s of
// a run that has about 30 s in all; a column scan takes 1 ms.
type oracle struct {
	tuples []vec.Sparse
	cols   map[int][]float64 // built on first use per dimension
}

func newOracle(w *world) *oracle {
	return &oracle{tuples: append([]vec.Sparse(nil), w.tuples...), cols: map[int][]float64{}}
}

// apply replays one acknowledged write.
func (o *oracle) apply(op writeOp) error {
	var t vec.Sparse
	switch op.kind {
	case writeInsert:
		if op.id != len(o.tuples) {
			return fmt.Errorf("insert acknowledged as id %d, oracle expects %d", op.id, len(o.tuples))
		}
		o.tuples = append(o.tuples, nil)
		for d, col := range o.cols {
			o.cols[d] = append(col, 0)
		}
		t = op.tuple
	case writeReplace:
		t = op.tuple
	}
	if op.id < 0 || op.id >= len(o.tuples) {
		return fmt.Errorf("write acknowledged for id %d outside [0,%d)", op.id, len(o.tuples))
	}
	o.tuples[op.id] = t
	for d, col := range o.cols {
		col[op.id] = t.Get(d)
	}
	return nil
}

func (o *oracle) col(dim int) []float64 {
	if c, ok := o.cols[dim]; ok {
		return c
	}
	c := make([]float64, len(o.tuples))
	for id, t := range o.tuples {
		c[id] = t.Get(dim)
	}
	o.cols[dim] = c
	return c
}

// topk scores every tuple and returns the k best.
func (o *oracle) topk(q vec.Query, k int) []resultEntry {
	cols := make([][]float64, len(q.Dims))
	for i, d := range q.Dims {
		cols[i] = o.col(d)
	}
	best := make([]resultEntry, 0, k+1)
	worse := func(a, b resultEntry) bool { // a ranks below b
		return a.Score < b.Score || (a.Score == b.Score && a.ID > b.ID)
	}
	for id := range o.tuples {
		s := 0.0
		for i, c := range cols {
			s += q.Weights[i] * c[id]
		}
		e := resultEntry{ID: id, Score: s}
		if len(best) == k && !worse(best[k-1], e) {
			continue
		}
		at := sort.Search(len(best), func(i int) bool { return worse(best[i], e) })
		best = append(best, resultEntry{})
		copy(best[at+1:], best[at:])
		best[at] = e
		if len(best) > k {
			best = best[:k]
		}
	}
	return best
}

func sameIDs(a, b []resultEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// checkResult compares a served ranked result with the oracle's: ids and
// scores must be equal.
func (o *oracle) checkResult(q vec.Query, got []resultEntry) error {
	want := o.topk(q, topK)
	if len(got) != len(want) {
		return fmt.Errorf("result has %d entries, oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("rank %d: served (id %d, score %v), oracle (id %d, score %v)",
				i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
	return nil
}

// checkRegion probes one dimension's φ=0 region on both sides: a weight
// just inside [lo, hi] must keep the ranked ids, one just outside must
// change them. A bound at the edge of the weight domain has no outside.
func (o *oracle) checkRegion(q vec.Query, j int, reg region, base []resultEntry) error {
	probe := func(delta float64) ([]resultEntry, bool) {
		w := q.Weights[j] + delta
		if w <= 0 || w > 1 {
			return nil, false
		}
		p := vec.Query{Dims: q.Dims, Weights: append([]float64(nil), q.Weights...)}
		p.Weights[j] = w
		return o.topk(p, topK), true
	}
	for _, bound := range []float64{reg.Lo, reg.Hi} {
		if bound == 0 {
			continue
		}
		if res, ok := probe(bound * (1 - probeEps)); ok && !sameIDs(res, base) {
			return fmt.Errorf("dim %d: result changes inside the region, at deviation %v of bound %v", reg.Dim, bound*(1-probeEps), bound)
		}
		if res, ok := probe(bound * (1 + probeEps)); ok && sameIDs(res, base) {
			return fmt.Errorf("dim %d: result unchanged outside the region, at deviation %v of bound %v", reg.Dim, bound*(1+probeEps), bound)
		}
	}
	return nil
}

// oracleReport is the outcome of the post-window verification.
type oracleReport struct {
	checked  int
	rejected int
	first    string // first rejection, for the operator
}

func (r *oracleReport) reject(format string, a ...any) {
	r.rejected++
	if r.first == "" {
		r.first = fmt.Sprintf(format, a...)
	}
}

// verify rebuilds the dataset from every acknowledged write, then
// continues each client's stream for oracleChecks further requests in
// total, sequentially and untimed, and checks every reply.
func verify(l *live, logs []*clientLog) oracleReport {
	var rep oracleReport
	o := newOracle(l.world)
	// Clients write disjoint ids, so replaying client by client gives
	// the state any interleaving produced — except insert ids, which
	// the servers hand out in arrival order: replay inserts by
	// acknowledged id.
	var inserts []writeOp
	for c := range l.streams {
		for _, op := range append(append([]writeOp(nil), l.warmAcks[c]...), logs[c].acks...) {
			if op.kind == writeInsert {
				inserts = append(inserts, op)
			} else if err := o.apply(op); err != nil {
				rep.reject("%v", err)
			}
		}
	}
	sort.Slice(inserts, func(i, j int) bool { return inserts[i].id < inserts[j].id })
	for _, op := range inserts {
		if err := o.apply(op); err != nil {
			rep.reject("%v", err)
		}
	}

	for n := 0; n < oracleChecks; n++ {
		c := n % len(l.streams)
		s := l.streams[c].next()
		r, _ := l.doers[c].do(s)
		l.streams[c].observe(s, r)
		rep.checked++
		if !r.ok() {
			rep.reject("%s: status %d, error %v", s.path, r.status, r.err)
			continue
		}
		if s.write != nil {
			op := *s.write
			op.id = r.ackID
			if err := o.apply(op); err != nil {
				rep.reject("%v", err)
			}
			continue
		}
		if err := o.checkResult(s.q, r.result); err != nil {
			rep.reject("%s %v: %v", s.path, s.q, err)
			continue
		}
		if s.class == opAnalyze && s.phi == 0 {
			j := n % len(s.q.Dims)
			if err := o.checkRegion(s.q, j, r.regions[j], r.result); err != nil {
				rep.reject("%s %v: %v", s.path, s.q, err)
			}
		}
	}
	return rep
}
