package engine

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/lists"
	"repro/internal/topk"
	"repro/internal/vec"
)

// FuzzValidateQuery drives arbitrary JSON query requests — the shape
// the HTTP transport decodes — through the validation gate and, when
// accepted, the full Analyze pipeline. Properties: validation never
// panics on a hand-built query; every rejection wraps ErrInvalid (the
// transport's contract for mapping to a 400); and every request that
// passes validation analyzes without panic or error, i.e. validate()
// really is the full precondition of the executor.
func FuzzValidateQuery(f *testing.F) {
	f.Add(`{"dims":[0,2],"weights":[0.4,0.3],"k":3,"phi":1}`)
	f.Add(`{"dims":[1],"weights":[1],"k":1,"phi":0}`)
	f.Add(`{"dims":[0,0],"weights":[0.2,0.2],"k":2,"phi":0}`)
	f.Add(`{"dims":[-1],"weights":[0.5],"k":0,"phi":-2}`)
	f.Add(`{"dims":[3,1],"weights":[0.1,0.9],"k":2,"phi":3}`)
	f.Add(`{"dims":[0],"weights":[null],"k":1,"phi":0}`)

	tuples := []vec.Sparse{
		{{Dim: 0, Val: 0.9}, {Dim: 1, Val: 0.2}},
		{{Dim: 0, Val: 0.4}, {Dim: 2, Val: 0.7}},
		{{Dim: 1, Val: 0.8}, {Dim: 3, Val: 0.1}},
		{{Dim: 2, Val: 0.3}, {Dim: 3, Val: 0.6}},
		{{Dim: 0, Val: 0.5}, {Dim: 3, Val: 0.5}},
	}
	eng := New(lists.NewMemIndex(tuples, 4), Config{CacheEntries: -1})

	f.Fuzz(func(t *testing.T, raw string) {
		var req struct {
			Dims    []int     `json:"dims"`
			Weights []float64 `json:"weights"`
			K       int       `json:"k"`
			Phi     int       `json:"phi"`
		}
		if err := json.Unmarshal([]byte(raw), &req); err != nil {
			return
		}
		q := vec.Query{Dims: req.Dims, Weights: req.Weights}
		if err := eng.validate(q, req.K, req.Phi); err != nil {
			if !errors.Is(err, ErrInvalid) {
				t.Fatalf("validation failure not tagged ErrInvalid: %v", err)
			}
			return
		}
		if _, err := eng.Analyze(context.Background(), q, req.K, Options{Options: core.Options{Phi: req.Phi}}); err != nil {
			t.Fatalf("query passed validate but Analyze failed: %v", err)
		}
	})
}

// FuzzAnalyzeImposed drives arbitrary /shard/analyze bodies — a query,
// the shard's id base and the imposed result a coordinator sends —
// through AnalyzeImposed. Properties: it never panics, and every failure
// is a validation failure (ErrInvalid), which the transport answers 400.
// The first seed is a payload whose empty projection used to panic in
// Phase 2.
func FuzzAnalyzeImposed(f *testing.F) {
	f.Add(`{"dims":[0,1],"weights":[0.8,0.5],"k":1,"base":0,"imposed":[{"id":0,"score":1,"proj":[]}]}`)
	f.Add(`{"dims":[0,1],"weights":[0.8,0.5],"k":2,"base":0,"phi":1,"imposed":[{"id":0,"score":0.82,"proj":[0.9,0.2]},{"id":4,"score":0.65,"proj":[0.5,0.5]}]}`)
	f.Add(`{"dims":[0,3],"weights":[0.4,1],"k":2,"base":3,"phi":2,"method":1,"imposed":[{"id":1,"score":0.9,"proj":[0.4,0.5]},{"id":9,"score":0.9,"proj":[1,0.2]}]}`)
	f.Add(`{"dims":[2],"weights":[0.5],"k":3,"base":-2,"composition_only":true,"imposed":[{"id":3,"score":0.5,"proj":[1]},{"id":3,"score":0.2,"proj":[0.4]}]}`)

	tuples := []vec.Sparse{
		{{Dim: 0, Val: 0.9}, {Dim: 1, Val: 0.2}},
		{{Dim: 0, Val: 0.4}, {Dim: 2, Val: 0.7}},
		{{Dim: 1, Val: 0.8}, {Dim: 3, Val: 0.1}},
		{{Dim: 2, Val: 0.3}, {Dim: 3, Val: 0.6}},
		{{Dim: 0, Val: 0.5}, {Dim: 3, Val: 0.5}},
	}
	eng := New(lists.NewMemIndex(tuples, 4), Config{CacheEntries: -1})

	f.Fuzz(func(t *testing.T, raw string) {
		var req struct {
			Dims            []int         `json:"dims"`
			Weights         []float64     `json:"weights"`
			K               int           `json:"k"`
			Phi             int           `json:"phi"`
			Base            int           `json:"base"`
			Method          uint          `json:"method"`
			CompositionOnly bool          `json:"composition_only"`
			Imposed         []topk.Scored `json:"imposed"`
		}
		if err := json.Unmarshal([]byte(raw), &req); err != nil {
			return
		}
		q := vec.Query{Dims: req.Dims, Weights: req.Weights}
		opts := Options{Options: core.Options{Phi: req.Phi, CompositionOnly: req.CompositionOnly,
			Method: core.Methods[req.Method%uint(len(core.Methods))]}}
		if _, _, err := eng.AnalyzeImposed(context.Background(), q, req.K, req.Base, req.Imposed, opts); err != nil && !errors.Is(err, ErrInvalid) {
			t.Fatalf("AnalyzeImposed failed other than as invalid: %v", err)
		}
	})
}
