// Package core implements the paper's contribution: immutable-region
// computation for subspace top-k queries. Given a completed TA run
// (result R(q) and candidate list C(q)), it derives for every query
// dimension j the widest weight-deviation interval (lj, uj) that
// preserves the ranked result, optionally generalized to up to φ
// tolerated perturbations per side, and reports the perturbation (which
// tuple overtakes which) at every region bound.
//
// Four algorithm variants are provided, matching the paper's §7.1:
//
//   - Scan  — the baseline of §4: every candidate is evaluated.
//   - Prune — Scan plus candidate pruning (§5.1, Lemmas 2–4).
//   - Thres — Scan plus candidate thresholding (§5.2, Algorithm 3).
//   - CPT   — pruning followed by thresholding (§5, §6).
//
// φ = 0 runs the paper's three-phase pipeline literally (Algorithms
// 1–3); φ > 0 runs the score–deviation envelope machinery of §6. Both
// are held to internal/oracle, which is exact and shares no code with core.
//
// # Concurrency model
//
// One Compute call runs on the calling goroutine over one shared scan,
// exactly as the published pseudo-code reads: the dimensions run in
// ascending order, and each dimension's Phase 3 resumes the same TA run,
// so later dimensions see earlier dimensions' pulls. Concurrency is
// between queries: each has its own run (or its own member view of a
// fused batch, which reads the shared table pages in place and writes
// only pages of its own), its own pooled scratch and its own Metrics.
// I/O charges land on the index's (atomic) meter; the SeqPages and
// RandReads deltas in Metrics bracket the whole call.
package core

import (
	"context"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/lists"
	"repro/internal/topk"
	"repro/internal/vec"
)

// Method selects the candidate-processing strategy of Phase 2.
type Method int

const (
	// MethodScan evaluates every candidate (baseline, §4).
	MethodScan Method = iota
	// MethodPrune evaluates only candidates surviving Lemmas 2–4 (§5.1).
	MethodPrune
	// MethodThres thresholds all candidates (§5.2).
	MethodThres
	// MethodCPT prunes then thresholds (§5): the paper's full algorithm.
	MethodCPT
)

// Methods lists all variants in the paper's presentation order.
var Methods = []Method{MethodScan, MethodThres, MethodPrune, MethodCPT}

func (m Method) String() string {
	switch m {
	case MethodScan:
		return "Scan"
	case MethodPrune:
		return "Prune"
	case MethodThres:
		return "Thres"
	case MethodCPT:
		return "CPT"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures a region computation.
type Options struct {
	Method Method
	// Phi is the number of tolerable result perturbations per side
	// (φ ≥ 0). Phi+1 region bounds are produced on each side of qj.
	Phi int
	// CompositionOnly ignores reorderings within R(q): only inclusions
	// of new tuples count as perturbations (§7.4).
	CompositionOnly bool
	// Iterative answers φ > 0 by repeated one-region requests instead of
	// the one-off computation of §6 — the wasteful strategy Fig. 15
	// compares against.
	Iterative bool
	// Schedule selects the probing schedule of the thresholding lists.
	Schedule Schedule
	// Parallelism is ignored. It stays only because bench/ladder.go:181
	// assigns it; ROADMAP item 3, which moves the ladder off this
	// package, removes it.
	Parallelism int
}

// Envelope reports whether the options route a computation through the
// §6 envelope machinery instead of Algorithms 1–3 — the one dispatch
// computeDim, a shard's round-2 reply and the coordinator's merge must
// agree on. Composition-only always takes the envelope path: a tuple
// enters the result set when it crosses the k-th score envelope, which
// is below dk's own line once result tuples reorder — the classic
// dk-only comparison of Phase 2 would miss such entries.
func (o Options) Envelope() bool {
	return o.Phi > 0 || o.CompositionOnly
}

// Schedule is the probing schedule of Thres/CPT. §5.2 reports having
// tried alternatives to plain round-robin, such as drawing from the
// score list twice as often (it feeds both bound searches); round-robin
// won on robustness. Both are implemented for the ablation benchmark.
type Schedule int

const (
	// ScheduleRoundRobin probes SLS, SLj↑ and SLj↓ in strict turn.
	ScheduleRoundRobin Schedule = iota
	// ScheduleScoreBiased pulls two SLS candidates per round.
	ScheduleScoreBiased
)

func (s Schedule) String() string {
	if s == ScheduleScoreBiased {
		return "score-biased"
	}
	return "round-robin"
}

// Perturbation is a result change at a region bound: at deviation Delta,
// tuple Below overtakes tuple Above. Entry is true when Below was outside
// the result (composition change) and false for a reordering within it.
type Perturbation struct {
	Delta float64 `json:"delta"`
	Above int     `json:"above"`
	Below int     `json:"below"`
	Entry bool    `json:"entry"`
}

// Regions holds the immutable regions of one query dimension. Lo/Hi is
// the innermost (φ=0) region as deviations of the weight (Lo ≤ 0 ≤ Hi).
// Right lists the successive perturbations at deviations > 0 in
// ascending order (up to Phi+1 of them), Left the ones at deviations < 0
// in order of increasing |delta|. The r-th immutable region on the right
// is (Right[r-1].Delta, Right[r].Delta); a missing entry means the
// region extends to the weight-domain edge.
type Regions struct {
	Dim   int // dataset dimension id
	QPos  int // index within Query().Dims
	Lo    float64
	Hi    float64
	Right []Perturbation
	Left  []Perturbation
}

// ResultAfter replays perturbations on the ranked base result and returns
// the ranked result valid in the region immediately past the i-th bound
// (0-based) on the chosen side. base is a ranked id list (R(q)).
func (r Regions) ResultAfter(base []int, right bool, i int) ([]int, error) {
	perts := r.Left
	if right {
		perts = r.Right
	}
	if i >= len(perts) {
		return nil, fmt.Errorf("core: only %d perturbations on that side", len(perts))
	}
	out := append([]int(nil), base...)
	for _, p := range perts[:i+1] {
		if err := applyPerturbation(out, p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// applyPerturbation mutates the ranked list in place.
func applyPerturbation(ranked []int, p Perturbation) error {
	if p.Entry {
		if len(ranked) == 0 || ranked[len(ranked)-1] != p.Above {
			return fmt.Errorf("core: entry perturbation expects %d at rank k", p.Above)
		}
		ranked[len(ranked)-1] = p.Below
		return nil
	}
	for i := 0; i+1 < len(ranked); i++ {
		if ranked[i] == p.Above && ranked[i+1] == p.Below {
			ranked[i], ranked[i+1] = ranked[i+1], ranked[i]
			return nil
		}
	}
	return fmt.Errorf("core: reorder perturbation %d/%d not adjacent", p.Above, p.Below)
}

// Metrics meters one Compute call. Evaluated counts candidates checked
// against the result boundary (the paper's "# evaluated candidates";
// fetching each costs one random I/O). Phase durations cover all query
// dimensions; I/O counters are deltas against the index's meter.
type Metrics struct {
	Evaluated       int           `json:"evaluated"`
	EvaluatedPerDim []int         `json:"evaluated_per_dim"`
	Phase1          time.Duration `json:"phase1_ns"`
	Phase2          time.Duration `json:"phase2_ns"`
	Phase3          time.Duration `json:"phase3_ns"`
	Phase3Pulled    int           `json:"phase3_pulled"`
	SeqPages        int64         `json:"seq_pages"`
	RandReads       int64         `json:"rand_reads"`
	MemBytes        int64         `json:"mem_bytes"`
}

// EvaluatedPerDimAvg is Evaluated averaged over the query dimensions.
func (m Metrics) EvaluatedPerDimAvg() float64 {
	if len(m.EvaluatedPerDim) == 0 {
		return 0
	}
	return float64(m.Evaluated) / float64(len(m.EvaluatedPerDim))
}

// CPU returns the total processing time across phases.
func (m Metrics) CPU() time.Duration { return m.Phase1 + m.Phase2 + m.Phase3 }

// Output is the full product of a region computation. It owns its
// memory: Result is a compact copy (topk.Compact), not a view of the
// run's candidate list, so an Output may outlive — and never pins — the
// scan that produced it.
type Output struct {
	Query   vec.Query
	K       int
	Result  []topk.Scored
	Regions []Regions
	Metrics Metrics
}

// RankedIDs returns the ranked tuple ids of the base result.
func (o *Output) RankedIDs() []int {
	ids := make([]int, len(o.Result))
	for i, r := range o.Result {
		ids[i] = r.ID
	}
	return ids
}

// computer carries the state shared by every dimension of one Compute
// call. All fields are read-only once the TA run has completed.
type computer struct {
	ix   lists.Index
	q    vec.Query
	k    int
	opts Options
	res  []topk.Scored

	// ctx may be nil (never cancelled). The phase loops poll it at a
	// coarse stride — each iteration they guard costs a tuple fetch — and
	// bail out early once it fires; Compute then discards the partial
	// output and surfaces the context's error.
	ctx context.Context

	// idBase is what to add to a table row's tuple id to get the id the
	// regions report: 0, or the shard's offset under an imposed result.
	idBase int
}

// dimComputer is the working state of the region computation: the
// shared read-only computer plus the scan view Phase 3 resumes, the
// metrics, and pooled scratch (evaluation memo and candidate-order
// buffers), all of them carried from one dimension to the next.
type dimComputer struct {
	*computer
	view topk.View
	rows *topk.Table // view.Table(): every candidate is read in place, by position
	met  *Metrics
	sc   *scratch

	// err stops the Phase-2/3 loops: a cancellation their strided polls
	// (ctxTick) saw, or a failed Phase-2 fetch.
	err     error
	ctxTick uint32
}

func (c *computer) newDim(view topk.View, met *Metrics, sc *scratch) *dimComputer {
	return &dimComputer{computer: c, view: view, rows: view.Table(), met: met, sc: sc}
}

// id returns the reported tuple id of candidate row p.
func (d *dimComputer) id(p int32) int { return d.rows.ID(p) + d.idBase }

// Runner is the execution surface region computation drives: a
// topk.View that can additionally be run to termination (a no-op when
// the scan already completed — e.g. a member view of a fused
// multi-query run). *topk.TA and *topk.MemberRun both implement it.
type Runner interface {
	topk.View
	RunContext(ctx context.Context) error
}

// Compute derives the immutable regions of every query dimension from a
// completed TA run. The TA's candidate list grows as Phase 3 resumes the
// scan, exactly as in the paper: later dimensions see earlier additions.
//
// ctx cancels the computation mid-flight: the TA round loop, the
// Phase-2 evaluation/thresholding loops and the Phase-3 resume loops all
// poll it at a coarse stride, so a disconnected client stops costing CPU
// and I/O within a few hundred accesses. A failed read stops them the
// same way. Either way the partial output is discarded and the error is
// returned. A nil ctx is treated as context.Background().
func Compute(ctx context.Context, ta *topk.TA, opts Options) (*Output, error) {
	return ComputeView(ctx, ta, opts)
}

// ComputeView is Compute over any Runner — the entry point the fused
// batch path uses to compute regions for each member view of a shared
// multi-query scan. The answer is identical to a solo run's: a member
// view's candidate superset only adds non-binding constraints.
func ComputeView(ctx context.Context, r Runner, opts Options) (*Output, error) {
	if opts.Phi < 0 {
		return nil, fmt.Errorf("core: negative phi %d", opts.Phi)
	}
	if err := r.RunContext(ctx); err != nil {
		return nil, fmt.Errorf("core: top-k scan: %w", err)
	}
	c := &computer{
		ix:   r.Index(),
		q:    r.Query(),
		k:    r.K(),
		opts: opts,
		res:  r.Result(),
		ctx:  ctx,
	}
	if v, ok := r.(*imposedRunner); ok {
		c.idBase = v.base
	}
	qlen := c.q.Len()
	out := &Output{Query: c.q, K: c.k, Result: topk.Compact(c.res)}
	out.Regions = make([]Regions, qlen)
	met := Metrics{EvaluatedPerDim: make([]int, qlen)}

	seq0, rnd0, _ := c.ix.Stats().Snapshot()
	if len(c.res) < c.k {
		// Fewer tuples than k: no tuple can displace anything.
		for jx := range c.q.Dims {
			out.Regions[jx] = c.fullDomainRegions(jx)
		}
	} else if err := c.computeSequential(r, out, &met); err != nil {
		return nil, fmt.Errorf("core: region computation: %w", err)
	}
	seq1, rnd1, _ := c.ix.Stats().Snapshot()
	met.SeqPages = seq1 - seq0
	met.RandReads = rnd1 - rnd0
	order, cut := r.Ranking()
	met.MemBytes = c.memFootprint(r.Table(), order[cut:])
	out.Metrics = met
	return out, nil
}

// stop is the Phase-2/3 loops' check for a reason to quit: err, and the
// context, polled only every 64th call, because one loop iteration costs
// roughly a tuple fetch while ctx.Err may take a lock.
func (d *dimComputer) stop() bool {
	if d.err == nil && d.ctx != nil {
		if d.ctxTick++; d.ctxTick&63 == 0 {
			d.err = d.ctx.Err()
		}
	}
	return d.err != nil
}

// failed reports what failed the finished dimension: err, the failure of
// the scan Phase 3 resumed, or a cancellation no strided poll reached.
func (d *dimComputer) failed() error {
	if d.err == nil {
		d.err = d.view.Err()
	}
	if d.err == nil && d.ctx != nil {
		d.err = d.ctx.Err()
	}
	return d.err
}

// computeSequential is the paper-literal pipeline: one shared scan, one
// evaluation memo reset per dimension, metrics accumulated in place.
func (c *computer) computeSequential(r Runner, out *Output, met *Metrics) error {
	sc := getScratch()
	defer putScratch(sc)
	d := c.newDim(r, met, sc)
	for jx := range c.q.Dims {
		sc.resetEval()
		out.Regions[jx] = d.computeDim(jx)
		if err := d.failed(); err != nil {
			return err
		}
	}
	return nil
}

// computeDim routes one dimension to the right algorithm variant.
func (d *dimComputer) computeDim(jx int) Regions {
	opts := d.opts
	switch {
	case opts.Iterative && opts.Phi > 0:
		return d.iterativeDim(jx)
	case opts.Envelope():
		return d.envelopeDim(jx, opts.Phi)
	default:
		return d.classicDim(jx)
	}
}

// fullDomainRegions covers the degenerate |R| < k case.
func (c *computer) fullDomainRegions(jx int) Regions {
	qj := c.q.Weights[jx]
	return Regions{Dim: c.q.Dims[jx], QPos: jx, Lo: -qj, Hi: 1 - qj}
}

// evaluate pays for the candidate at row pos the one random I/O that is
// the paper's accounting unit for Phase 2. Nothing is read back: the
// projection Phase 2 works on is the one the scan already took from the
// identical record (the row's coordinates), so the access is charged
// (Index.Project with no dimensions) rather than repeated. A second
// evaluation within one dimension is served from the memo without
// re-charging. A failed fetch is kept in err, which stops the loop.
func (d *dimComputer) evaluate(jx int, pos int32) {
	if d.sc.mark[pos] == d.sc.epoch {
		return
	}
	d.sc.mark[pos] = d.sc.epoch
	if err := d.ix.Project(d.id(pos), nil, nil); err != nil && d.err == nil {
		d.err = err
	}
	d.noteEvaluated(jx)
}

// noteEvaluated counts one evaluation. Phase 3 calls it directly for the
// tuple it just pulled: that fetch was charged by the resumed scan, and
// the tuple — new to the scan, and last in its dimension — cannot meet
// the memo again before the next reset.
func (d *dimComputer) noteEvaluated(jx int) {
	d.met.Evaluated++
	d.met.EvaluatedPerDim[jx]++
}

// dk returns the k-th (last) result tuple.
func (c *computer) dk() topk.Scored { return c.res[c.k-1] }

// memFootprint models each method's working-set size in bytes, after the
// paper's Fig. 10(d): a candidate-list entry is a pointer+score (16 B), a
// sorted-list entry a pointer+key (16 B). Prune and CPT are charged for
// the on-the-fly pruning of §5.1 (only CL tuples plus φ+1 singleton
// representatives per dimension are retained).
func (c *computer) memFootprint(rows *topk.Table, cands []int32) int64 {
	const entry = 16
	total := int64(len(cands)) * entry
	switch c.opts.Method {
	case MethodScan:
		return total
	case MethodThres:
		// candidate list + the SLj sorted list built on all candidates
		return total + int64(len(cands))*entry
	case MethodPrune, MethodCPT:
		// A dimension's pruned count is the number of multi-dimension
		// candidates with that bit set (bit set and mask != bit is the
		// same predicate), so one pass over the masks yields all
		// per-dimension counts and the multi total together.
		multi := 0
		var counts [64]int // qlen ≤ 64: the partition mask is a uint64
		for _, p := range cands {
			if m := rows.Mask(p); m&(m-1) != 0 { // non-zero on ≥ 2 query dimensions
				multi++
				for m != 0 {
					counts[bits.TrailingZeros64(m)]++
					m &= m - 1
				}
			}
		}
		maxPruned := 0
		for _, n := range counts[:c.q.Len()] {
			if n > maxPruned {
				maxPruned = n
			}
		}
		reps := (c.opts.Phi + 1) * c.q.Len() * 2
		store := int64(multi+reps) * entry
		if c.opts.Method == MethodPrune {
			return store
		}
		// CPT additionally builds SLj over the pruned per-dim set.
		return store + int64(maxPruned+2*(c.opts.Phi+1))*entry
	default:
		return total
	}
}
