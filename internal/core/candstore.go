package core

import (
	"slices"
	"sort"

	"repro/internal/topk"
)

// CandidateStore implements the on-the-fly pruning / memory optimization
// of §5.1 (end) and its φ>0 generalization: while TA executes, instead of
// retaining the whole candidate list it keeps
//
//   - every multi-dimensional candidate (non-zero in ≥ 2 query
//     dimensions — these are in CL of some dimension and can never be
//     pruned), and
//   - per query dimension, the φ+1 best single-dimension candidates.
//     For a singleton of dimension t, score = q_t · coordinate, so one
//     coordinate-ordered top list serves both roles: it is dimension t's
//     CH representative set and contributes to every other dimension's
//     top-scoring C0 representatives.
//
// The store reproduces exactly the candidate subsets Lemmas 2–4 allow
// the pruning methods to use, with memory O(|CL| + qlen·(φ+1)) instead
// of O(|C(q)|).
type CandidateStore struct {
	qlen, phi int
	multi     []topk.Scored
	singles   [][]topk.Scored // per query dim, descending coordinate, ≤ φ+1
}

// NewCandidateStore creates a store for a query of qlen dimensions and a
// perturbation budget of phi.
func NewCandidateStore(qlen, phi int) *CandidateStore {
	return &CandidateStore{qlen: qlen, phi: phi, singles: make([][]topk.Scored, qlen)}
}

// Add offers one encountered candidate to the store.
func (s *CandidateStore) Add(sc topk.Scored) {
	if sc.NonZero() >= 2 {
		s.multi = append(s.multi, sc)
		return
	}
	jx := trailingBit(sc.NZMask)
	if jx < 0 || jx >= s.qlen {
		return // no non-zero query coordinate: can never affect anything
	}
	lst := append(s.singles[jx], sc)
	sort.Slice(lst, func(i, j int) bool {
		if lst[i].Proj[jx] != lst[j].Proj[jx] {
			return lst[i].Proj[jx] > lst[j].Proj[jx]
		}
		return lst[i].ID < lst[j].ID
	})
	if len(lst) > s.phi+1 {
		lst = lst[:s.phi+1]
	}
	s.singles[jx] = lst
}

func prefix(s []topk.Scored, n int) []topk.Scored {
	if n > len(s) {
		n = len(s)
	}
	return s[:n]
}

// trailingBit returns the index of the lowest set bit, or -1.
func trailingBit(m uint64) int {
	if m == 0 {
		return -1
	}
	i := 0
	for m&1 == 0 {
		m >>= 1
		i++
	}
	return i
}

// PrunedSet returns the candidates dimension jx's Phase 2 must examine
// under Lemmas 2–4 (both sides merged), in decreasing score order:
// all multi-dimensional candidates that are non-zero on jx (CL_jx), the
// φ+1 top-scoring candidates that are zero on jx (C0_jx side), and the
// φ+1 highest-coordinate singletons of jx (CH_jx side).
func (s *CandidateStore) PrunedSet(jx int) []topk.Scored {
	keep := s.phi + 1
	bit := uint64(1) << uint(jx)
	var out []topk.Scored
	var c0 []topk.Scored
	for _, sc := range s.multi {
		if sc.NZMask&bit != 0 {
			out = append(out, sc) // CL_jx
		} else {
			c0 = append(c0, sc) // multi-dimensional member of C0_jx
		}
	}
	// C0_jx also contains every singleton of the other dimensions.
	for t := 0; t < s.qlen; t++ {
		if t != jx {
			c0 = append(c0, s.singles[t]...)
		}
	}
	sortScoreDesc(c0)
	out = append(out, prefix(c0, keep)...)
	// CH_jx representatives: stored pre-sorted by coordinate.
	out = append(out, prefix(s.singles[jx], keep)...)
	sortScoreDesc(out)
	return out
}

// byScoreDesc is the canonical C(q) order: decreasing score, ties by
// ascending id.
func byScoreDesc(a, b *topk.Scored) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	default:
		return a.ID - b.ID
	}
}

func sortScoreDesc(s []topk.Scored) {
	slices.SortFunc(s, func(a, b topk.Scored) int { return byScoreDesc(&a, &b) })
}

// Size reports how many candidates the store retains.
func (s *CandidateStore) Size() int {
	n := len(s.multi)
	for _, l := range s.singles {
		n += len(l)
	}
	return n
}

// Bytes models the store's footprint (16 bytes per retained entry, as in
// the paper's Fig. 10(d) accounting).
func (s *CandidateStore) Bytes() int64 { return int64(s.Size()) * 16 }
