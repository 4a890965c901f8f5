// Shard-side HTTP surface of the scatter-gather deployment: the two
// internal RPCs a coordinator (internal/shard) drives against each
// shard's primary. They expose the full Scored wire form — score AND
// subspace projections — because the coordinator's merge needs the
// exact floats the shard computed; JSON float64 round-trips are exact,
// so transport does not break the bit-identity contract.
package server

import (
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/topk"
)

// ShardTopKResponse is the body of a successful /shard/topk: scored
// lines in topk.Scored's own wire form — the id, the exact score, the
// projections onto the query dimensions in query order and the
// candidate-class bitset of §5.1.
type ShardTopKResponse struct {
	Result []topk.Scored `json:"result"`
}

// ShardAnalyzeRequest is the body of /shard/analyze — round 2 of a
// distributed analysis. Base is this shard's id offset; Imposed is the
// coordinator-merged global result the shard computes constraints
// against. The option fields mirror core.Options; unlike the public
// /analyze they include Iterative, because the coordinator must mirror
// whatever dispatch the caller asked for.
type ShardAnalyzeRequest struct {
	Dims            []int         `json:"dims"`
	Weights         []float64     `json:"weights"`
	K               int           `json:"k"`
	Base            int           `json:"base"`
	Imposed         []topk.Scored `json:"imposed"`
	Phi             int           `json:"phi"`
	Method          string        `json:"method"`
	CompositionOnly bool          `json:"composition_only,omitempty"`
	Iterative       bool          `json:"iterative,omitempty"`
}

// ShardAnalyzeResponse is the body of a successful /shard/analyze: the
// constraint regions the shard's tuples impose on the imposed result
// (in query-dimension order, global ids); on the envelope paths, the
// shard lines that can reach the imposed result's k-th envelope —
// the coordinator's replay input, absent on the classic φ = 0 path; and
// the shard's metering whole, phase times included, so a merged answer
// reports the same cost over HTTP backends as over in-process ones.
type ShardAnalyzeResponse struct {
	Regions []RegionJSON  `json:"regions"`
	Lines   []topk.Scored `json:"lines,omitempty"`
	Metrics core.Metrics  `json:"metrics"`
}

// shardEngine resolves the engine behind the /shard/* RPCs. Only a
// shard's own engine can answer them: a coordinator front is not a
// shard (404), a standby mid-re-seed has nothing to serve yet (503).
func (s *Server) shardEngine(w http.ResponseWriter) (*engine.Engine, bool) {
	qr, ok := s.querier(w)
	if !ok {
		return nil, false
	}
	eng, ok := qr.(*engine.Engine)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("not a shard"))
	}
	return eng, ok
}

// handleShardTopK answers the coordinator's round-1 scatter: the local
// top-k with projections, under local ids.
func (s *Server) handleShardTopK(w http.ResponseWriter, r *http.Request) {
	req, q, _, ok := decodeQuery(w, r, true)
	if !ok {
		return
	}
	eng, ok := s.shardEngine(w)
	if !ok {
		return
	}
	res, _, err := eng.TopKMetered(r.Context(), q, req.K)
	if err != nil {
		engineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ShardTopKResponse{Result: res})
}

// handleShardAnalyze answers the coordinator's round-2 scatter: the
// imposed-result region computation over this shard's tuples.
func (s *Server) handleShardAnalyze(w http.ResponseWriter, r *http.Request) {
	var req ShardAnalyzeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	q, opts, err := parseQuery(QueryRequest{Dims: req.Dims, Weights: req.Weights,
		Phi: req.Phi, Method: req.Method, CompositionOnly: req.CompositionOnly}, false)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	opts.Iterative = req.Iterative
	eng, ok := s.shardEngine(w)
	if !ok {
		return
	}
	out, lines, err := eng.AnalyzeImposed(r.Context(), q, req.K, req.Base, req.Imposed, opts)
	if err != nil {
		engineError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ShardAnalyzeResponse{
		Regions: toRegionsJSON(out.Regions),
		Lines:   lines,
		Metrics: out.Metrics,
	})
}
