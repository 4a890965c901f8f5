package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"

	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/vec"
)

// Every workload queries with the paper's default shape.
const (
	topK = 10
	qLen = 4
)

// datasetSeed, poolSeed and heavySeed are constants, not functions of
// -seed: the dataset, the refinement query pool and the expensive φ = 2
// queries are part of the system under test (like n = 200 000), so runs
// with different seeds measure the same index under different traffic.
const (
	datasetSeed = 1
	poolSeed    = 7
	heavySeed   = 11
	poolSize    = 512
	poolMinDF   = 50
	zipfS       = 1.1
)

// Refinement-session shape: one /analyze, then sessionSteps slider moves.
const (
	sessionSteps = 20
	insideShare  = 0.9 // moves landing inside the returned [lo, hi]
	writeShare   = 0.1 // write-mix: steps that become single-op batches
	replaceShare = 0.85
	insertShare  = 0.10 // the remaining 0.05 are deletes
)

type opClass int

const (
	opAnalyze opClass = iota
	opTopK
	opUpdate // /update and /delete
	numOpClasses
)

func (c opClass) String() string { return [...]string{"analyze", "topk", "update"}[c] }

// spec is one named workload: its dataset, deployment and traffic.
type spec struct {
	name string

	irgenArgs  []string // dataset arguments for irgen (without -out)
	shards     int      // 0 = one irserver; n = n shards behind an irproxy coordinator
	serverArgs []string // extra irserver flags
	clients    int      // closed-loop connections
	writers    int      // how many of them (the first ones) also write
	warm       int      // warm-up requests per client, part of setup_s
	ladder     int      // requests the traced in-process replay covers

	stream func(w *world, seed int64, client int) stream
}

var specs = []spec{
	{
		name:       "cold-analyze",
		irgenArgs:  []string{"-dataset", "st", "-n", "200000"},
		serverArgs: []string{"-wal", "-sync", "batch"},
		clients:    2,
		warm:       100,
		ladder:     300,
		stream: func(w *world, seed int64, client int) stream {
			return newColdStream(w, seed, client, 0)
		},
	},
	{
		name:      "refine-session",
		irgenArgs: []string{"-dataset", "wsj", "-scale", "2"},
		clients:   2,
		warm:      3000,
		ladder:    2100,
		stream: func(w *world, seed int64, client int) stream {
			return newRefineStream(w, seed, client, 0, 0)
		},
	},
	{
		name:       "write-mix",
		irgenArgs:  []string{"-dataset", "wsj", "-scale", "2"},
		serverArgs: []string{"-wal", "-sync", "batch", "-checkpoint-bytes", "524288"},
		clients:    2,
		writers:    1,
		warm:       3000,
		ladder:     2100,
		stream: func(w *world, seed int64, client int) stream {
			return newRefineStream(w, seed, client, 1, writeShare)
		},
	},
	{
		name:      "sharded-analyze",
		irgenArgs: []string{"-dataset", "st", "-n", "200000"},
		shards:    2,
		clients:   1,
		warm:      60,
		ladder:    300,
		stream: func(w *world, seed int64, client int) stream {
			return newColdStream(w, seed, client, 5)
		},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// world is the loader's own copy of the dataset the servers were given:
// it sizes the query streams, supplies write payloads and feeds the oracle.
type world struct {
	tuples []vec.Sparse
	m      int
	pool   []vec.Query // refinement query pool (datasets with enough populated dimensions)
}

// loadWorld reads back the tuple files irgen wrote (one per shard, in id
// order), so the loader sees exactly the bytes the servers serve.
func loadWorld(dataDir string, shards int) (*world, error) {
	paths := []string{filepath.Join(dataDir, "tuples.dat")}
	if shards > 0 {
		paths = paths[:0]
		for i := 0; i < shards; i++ {
			paths = append(paths, filepath.Join(dataDir, fmt.Sprintf("shard-%d", i), "tuples.dat"))
		}
	}
	w := &world{}
	for _, p := range paths {
		tf, err := storage.OpenTupleFile(p, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("bench: load dataset: %w", err)
		}
		w.m = tf.Dim()
		for id := 0; id < tf.NumTuples(); id++ {
			t, err := tf.GetWith(id, nil)
			if err != nil {
				tf.Close()
				return nil, fmt.Errorf("bench: load dataset: %w", err)
			}
			w.tuples = append(w.tuples, t)
		}
		tf.Close()
	}
	w.buildPool()
	return w, nil
}

// newWorld wraps in-memory tuples (tests and the smoke run).
func newWorld(tuples []vec.Sparse, m int) *world {
	w := &world{tuples: tuples, m: m}
	w.buildPool()
	return w
}

// buildPool draws the refinement query pool; datasets too narrow or too
// sparse for it (ST has 20 dense dimensions and is only queried cold)
// leave it empty.
func (w *world) buildPool() {
	d := dataset.New("bench", w.tuples, w.m)
	rng := rand.New(rand.NewSource(poolSeed))
	for len(w.pool) < poolSize {
		q, err := d.SampleQuery(rng, qLen, poolMinDF)
		if err != nil {
			w.pool = nil
			return
		}
		w.pool = append(w.pool, q)
	}
}

// step is one request of a client's stream plus what it means, which
// the oracle needs to check the reply.
type step struct {
	class opClass
	path  string
	body  []byte
	q     vec.Query // reads
	phi   int       // /analyze
	write *writeOp  // writes
}

type writeKind int

const (
	writeReplace writeKind = iota
	writeInsert
	writeDelete
)

// writeOp is one single-op write batch. id is the target for replace and
// delete; for insert it is filled from the server's acknowledgement.
type writeOp struct {
	kind  writeKind
	id    int
	tuple vec.Sparse
}

// stream is one client's request sequence. next builds the following
// request; observe feeds back the reply a refinement session steers by.
type stream interface {
	next() step
	observe(s step, r *reply)
}

// clientSeed derives a per-client generator seed from the run seed.
func clientSeed(seed int64, client int) int64 { return seed*1_000_003 + int64(client)*7919 + 1 }

// Wire request bodies. The loader keeps its own copies of the JSON
// shapes: the wire format is the servers' contract, their Go types are not.
type queryBody struct {
	Dims    []int     `json:"dims"`
	Weights []float64 `json:"weights"`
	K       int       `json:"k"`
	Phi     int       `json:"phi,omitempty"`
	Method  string    `json:"method,omitempty"`
}

type tupleEntryBody struct {
	Dim int     `json:"dim"`
	Val float64 `json:"val"`
}

type updateOpBody struct {
	ID    *int             `json:"id,omitempty"`
	Tuple []tupleEntryBody `json:"tuple"`
}

type updateBody struct {
	Ops []updateOpBody `json:"ops"`
}

type deleteBody struct {
	IDs []int `json:"ids"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the bodies above hold only ints and finite floats
	}
	return b
}

func analyzeStep(q vec.Query, phi int) step {
	return step{class: opAnalyze, path: "/analyze", q: q, phi: phi,
		body: mustJSON(queryBody{Dims: q.Dims, Weights: q.Weights, K: topK, Phi: phi, Method: "cpt"})}
}

func topkStep(q vec.Query) step {
	return step{class: opTopK, path: "/topk", q: q,
		body: mustJSON(queryBody{Dims: q.Dims, Weights: q.Weights, K: topK})}
}

func writeStep(op *writeOp) step {
	s := step{class: opUpdate, path: "/update", write: op}
	if op.kind == writeDelete {
		s.path = "/delete"
		s.body = mustJSON(deleteBody{IDs: []int{op.id}})
		return s
	}
	ob := updateOpBody{Tuple: make([]tupleEntryBody, len(op.tuple))}
	for i, e := range op.tuple {
		ob.Tuple[i] = tupleEntryBody{Dim: e.Dim, Val: e.Val}
	}
	if op.kind == writeReplace {
		id := op.id
		ob.ID = &id
	}
	s.body = mustJSON(updateBody{Ops: []updateOpBody{ob}})
	return s
}

// coldStream issues never-repeated queries: uniform qLen of the m
// dimensions, weights U(0.1, 1); every fourth request asks for φ = 2.
// With topkEvery > 0 every topkEvery-th request is sent as /topk
// instead, over the same draws, so sharded-analyze and cold-analyze see
// the same queries for one seed.
//
// A φ = 2 analysis costs ten to twenty times a φ = 0 one and its cost
// varies fivefold with the query, so the few hundred of them in a window
// carry most of its time. They are therefore drawn from a generator
// seeded by heavySeed, not by -seed: every run issues the same heavy
// queries in the same order, and runs with different seeds differ in the
// light ones only. Otherwise which heavy queries a seed happened to draw
// would move throughput by 15–25 %.
type coldStream struct {
	rng, heavy *rand.Rand
	m          int
	i          int
	topkEvery  int
}

func newColdStream(w *world, seed int64, client, topkEvery int) *coldStream {
	return &coldStream{
		rng:       rand.New(rand.NewSource(clientSeed(seed, client))),
		heavy:     rand.New(rand.NewSource(clientSeed(heavySeed, client))),
		m:         w.m,
		topkEvery: topkEvery,
	}
}

func (c *coldStream) next() step {
	i := c.i
	c.i++
	rng, phi := c.rng, 0
	if i%4 == 3 {
		rng, phi = c.heavy, 2
	}
	dims := rng.Perm(c.m)[:qLen]
	sort.Ints(dims)
	weights := make([]float64, qLen)
	for j := range weights {
		weights[j] = 0.1 + 0.9*rng.Float64()
	}
	q := vec.Query{Dims: dims, Weights: weights}
	if c.topkEvery > 0 && i%c.topkEvery == c.topkEvery-1 {
		return topkStep(q)
	}
	return analyzeStep(q, phi)
}

func (c *coldStream) observe(step, *reply) {}

// refineStream runs slide-bar sessions: a query drawn Zipf(1.1) from the
// fixed pool is analyzed, then sessionSteps times one weight moves —
// usually inside the region the analysis returned, so the server's
// region-certified cache answers. A move the server could not certify is
// followed by a re-analysis at the moved weights, which becomes the new
// anchor. With writes > 0 that share of steps is a single-op write batch
// instead. Every random draw happens in next and none depends on a
// reply, so the draws are a pure function of the seed; replies only
// decide where inside [lo, hi] a draw lands and whether a re-analysis is
// inserted.
type refineStream struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	w      *world
	writes float64

	client, writers int
	deleted         map[int]bool // ids this client deleted

	dims      []int
	anchor    []float64 // weights of the last analysis
	lo, hi    []float64 // its φ=0 region, as deviations
	moved     []float64 // weights of the last /topk
	stepsLeft int
	reanalyze bool
}

// newRefineStream builds client's stream. The first writers clients
// turn the writes share of their steps into write batches; the rest only read.
func newRefineStream(w *world, seed int64, client, writers int, writes float64) *refineStream {
	rng := rand.New(rand.NewSource(clientSeed(seed, client)))
	if client >= writers {
		writes = 0
	}
	return &refineStream{
		rng:     rng,
		zipf:    rand.NewZipf(rng, zipfS, 1, uint64(len(w.pool)-1)),
		w:       w,
		writes:  writes,
		client:  client,
		writers: writers,
		deleted: map[int]bool{},
	}
}

func (r *refineStream) next() step {
	if r.reanalyze {
		r.reanalyze = false
		r.anchor = r.moved
		return analyzeStep(vec.Query{Dims: r.dims, Weights: r.anchor}, 0)
	}
	if r.stepsLeft == 0 {
		q := r.w.pool[r.zipf.Uint64()]
		r.dims, r.anchor = q.Dims, q.Weights
		r.stepsLeft = sessionSteps
		return analyzeStep(q, 0)
	}
	r.stepsLeft--
	if r.writes > 0 && r.rng.Float64() < r.writes {
		return writeStep(r.drawWrite())
	}
	j := r.rng.Intn(qLen)
	inside := r.rng.Float64() < insideShare
	u := r.rng.Float64()
	weights := append([]float64(nil), r.anchor...)
	if inside && j < len(r.lo) {
		// 0.98 keeps the move strictly inside the certified interval
		// whatever the float rounding of anchor+δ.
		weights[j] = r.anchor[j] + 0.98*(r.lo[j]+u*(r.hi[j]-r.lo[j]))
	} else {
		weights[j] = 0.05 + 0.95*u
	}
	weights[j] = min(1, max(1e-6, weights[j]))
	r.moved = weights
	return topkStep(vec.Query{Dims: r.dims, Weights: weights})
}

// drawWrite picks the next write. Targets are original ids congruent to
// the client index modulo the writer count, so writers never touch each
// other's tuples and the final dataset does not depend on how their
// requests interleave.
func (r *refineStream) drawWrite() *writeOp {
	kind := writeDelete
	switch x := r.rng.Float64(); {
	case x < replaceShare:
		kind = writeReplace
	case x < replaceShare+insertShare:
		kind = writeInsert
	}
	op := &writeOp{kind: kind}
	n := len(r.w.tuples)
	if kind != writeInsert {
		for {
			op.id = r.client + r.writers*r.rng.Intn(n/r.writers)
			if !r.deleted[op.id] {
				break
			}
		}
	}
	if kind == writeDelete {
		r.deleted[op.id] = true
		return op
	}
	for len(op.tuple) == 0 { // payload: the content of a random original tuple
		op.tuple = r.w.tuples[r.rng.Intn(n)]
	}
	return op
}

func (r *refineStream) observe(s step, rep *reply) {
	switch s.class {
	case opAnalyze:
		r.lo, r.hi = r.lo[:0], r.hi[:0]
		for _, reg := range rep.regions {
			r.lo = append(r.lo, reg.Lo)
			r.hi = append(r.hi, reg.Hi)
		}
	case opTopK:
		if rep.ok() && rep.cache != "hit-region" {
			r.reanalyze = true
		}
	}
}
