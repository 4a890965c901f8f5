package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/fixture"
	"repro/internal/geom"
	"repro/internal/lists"
	"repro/internal/topk"
)

// TestQuickLemma1 verifies Lemma 1 directly: for random tuple pairs with
// S(above) ≥ S(below), deviations strictly inside the returned bound
// preserve the order and deviations strictly beyond it flip the order.
func TestQuickLemma1(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	f := func() bool {
		aboveCoord := rng.Float64()
		belowCoord := rng.Float64()
		belowScore := rng.Float64()
		aboveScore := belowScore + rng.Float64() // above wins at δ=0

		scoreAt := func(s, c, d float64) float64 { return s + d*c }
		x, kind := lemma1(aboveScore, aboveCoord, belowScore, belowCoord)
		if kind == 0 {
			// Parallel: the gap never closes for any deviation.
			for _, d := range []float64{-1, -0.5, 0.5, 1} {
				if scoreAt(belowScore, belowCoord, d) > scoreAt(aboveScore, aboveCoord, d) {
					return false
				}
			}
			return true
		}
		if x.Floor() < 0 {
			return false // above leads at δ=0, so the catch-up is on the side kind names
		}
		crit := float64(kind) * x.Floor()
		inside := crit * 0.99
		beyond := crit*1.01 + float64(kind)*1e-12
		return scoreAt(belowScore, belowCoord, inside) <= scoreAt(aboveScore, aboveCoord, inside) &&
			scoreAt(belowScore, belowCoord, beyond) >= scoreAt(aboveScore, aboveCoord, beyond)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickBoundStateMonotone: applying constraints only ever narrows
// the interval, and the recorded perturbation always sits at the bound.
func TestQuickBoundStateMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	f := func() bool {
		b := newBoundState(0.5)
		for i := 0; i < 50; i++ {
			below := rng.Float64()
			x, kind := lemma1(below+rng.Float64(), rng.Float64(), below, rng.Float64())
			prevLo, prevHi := b.lo.at, b.hi.at
			b.apply(x, kind, Perturbation{Above: i, Below: i + 1})
			if geom.Cmp(b.lo.at, prevLo) > 0 || geom.Cmp(b.hi.at, prevHi) > 0 {
				return false // widened
			}
		}
		r := b.regions(0, 0, 0.5)
		if r.Lo > 0 || r.Hi < 0 || r.Lo < -0.5 || r.Hi > 0.5 {
			return false
		}
		if len(r.Right) > 0 && r.Right[0].Delta != r.Hi {
			return false
		}
		if len(r.Left) > 0 && r.Left[0].Delta != r.Lo {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickApplyPerturbationReversible: an entry perturbation applied to
// a ranked list keeps length and replaces exactly the last element; a
// reorder is an adjacent transposition (applying it twice restores the
// list).
func TestQuickApplyPerturbationReversible(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	f := func() bool {
		n := 2 + rng.Intn(8)
		ranked := rng.Perm(n)
		orig := append([]int{}, ranked...)

		// Entry: new id replaces the last.
		entry := Perturbation{Above: ranked[n-1], Below: 1000, Entry: true}
		if err := applyPerturbation(ranked, entry); err != nil {
			return false
		}
		if ranked[n-1] != 1000 || len(ranked) != n {
			return false
		}
		copy(ranked, orig)

		// Reorder: swap an adjacent pair, twice = identity.
		i := rng.Intn(n - 1)
		re := Perturbation{Above: ranked[i], Below: ranked[i+1]}
		if err := applyPerturbation(ranked, re); err != nil {
			return false
		}
		back := Perturbation{Above: ranked[i], Below: ranked[i+1]}
		if err := applyPerturbation(ranked, back); err != nil {
			return false
		}
		for j := range orig {
			if ranked[j] != orig[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRegionsWellFormed: on random inputs, every computed region
// contains δ=0 (the current weights preserve their own result), stays
// within the weight domain, reports perturbations in the right order,
// the footprint model returns a positive value, and the pruned candidate
// set Phase 2 would examine in each dimension obeys the §5.1 bound.
func TestQuickRegionsWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	f := func() bool {
		cs := fixture.RandCase(rng, 20+rng.Intn(40), 5, 2+rng.Intn(2), 1+rng.Intn(4))
		method := Methods[rng.Intn(len(Methods))]
		phi := rng.Intn(3)
		ix := lists.NewMemIndex(cs.Tuples, cs.M)
		ta := topk.New(ix, cs.Q, cs.K, topk.BestList)
		out, err := Compute(context.Background(), ta, Options{Method: method, Phi: phi})
		if err != nil {
			return false
		}
		if out.Metrics.MemBytes < 0 {
			return false
		}
		comp := (&computer{ix: ix, q: ta.Query(), k: cs.K,
			opts: Options{Method: MethodCPT, Phi: phi}, res: ta.Result()}).newDim(ta, nil, new(scratch))
		for jx := range cs.Q.Dims {
			if !prunedSetWithinBound(comp, jx, phi) {
				return false
			}
		}
		for _, reg := range out.Regions {
			qj := cs.Q.Weights[reg.QPos]
			if reg.Lo > 0 || reg.Hi < 0 {
				return false // δ=0 must be inside
			}
			if reg.Lo < -qj-1e-12 || reg.Hi > 1-qj+1e-12 {
				return false // outside the weight domain
			}
			prev := 0.0
			for _, p := range reg.Right {
				if p.Delta < prev-1e-12 {
					return false // right events must ascend
				}
				prev = p.Delta
			}
			prev = 0.0
			for _, p := range reg.Left {
				if p.Delta > prev+1e-12 {
					return false // left events must descend
				}
				prev = p.Delta
			}
			if len(reg.Right) > phi+1 || len(reg.Left) > phi+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// prunedSetWithinBound checks Lemmas 2–4 on prunedSet's own output: a
// subsequence of the full (score desc, id asc) order that keeps every CL
// candidate of dimension jx (non-zero on jx and elsewhere) and, of C0
// (zero on jx) and CH (non-zero on jx alone), exactly the φ+1
// top-ranked members — |CL| + 2(φ+1) candidates at most.
func prunedSetWithinBound(c *dimComputer, jx, phi int) bool {
	const c0, ch, cl = 0, 1, 2
	bit := uint64(1) << uint(jx)
	full := slices.Clone(c.fullSet())
	got := c.prunedSet(jx, phi)
	var kept, skipped [3]int
	gi := 0
	for _, p := range full {
		class := cl
		switch mask := c.rows.Mask(p); {
		case mask&bit == 0:
			class = c0
		case mask == bit:
			class = ch
		}
		if gi < len(got) && got[gi] == p {
			gi++
			kept[class]++
			if skipped[class] > 0 {
				return false // a representative ranked below one left out
			}
		} else {
			skipped[class]++
		}
	}
	rep := func(class int) int { return min(phi+1, kept[class]+skipped[class]) }
	return gi == len(got) && skipped[cl] == 0 && kept[c0] == rep(c0) && kept[ch] == rep(ch)
}
