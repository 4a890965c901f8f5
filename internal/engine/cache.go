// The immutable-region answer cache. The paper's core object doubles as
// a validity certificate: an analysis of query q proves that any weight
// vector inside its regions' cross-polytope (footnote 1, the same
// containment test internal/session trusts client-side) has the
// identical ranked top-k result. The cache exploits both readings of
// that certificate, always with zero index I/O:
//
//   - Analyze hits require an exact weight-vector match (the degenerate
//     containment, deviation 0) and return the cached analysis as-is —
//     bit-identical result, regions and perturbations. Regions are
//     expressed relative to the analysis-time weights, so a shifted
//     in-region weight vector would need different region values;
//     serving it the anchor's regions would be wrong, hence the exact
//     match.
//
//   - TopK hits only need containment: if the requested weights fall
//     inside any cached entry's cross-polytope for the same subspace
//     and k, the ranked ids are provably unchanged, and the scores are
//     rebuilt exactly from the cached projections (the dot product adds
//     the same nonzero terms in the same dimension order as a live TA
//     scoring pass, so the floats are bit-identical). Entries computed
//     with CompositionOnly guarantee only set preservation, so hits are
//     re-ranked by the rebuilt scores, which is correct in both modes.
//
// Eviction is LRU under two bounds, entry count and bytes. An admitted
// Output is detached from the scan that produced it (core hands out a
// compact copy of the result), so an entry retains k tuples and a few
// perturbations per dimension and nothing else; entrySize counts exactly
// that, which makes the byte bound a bound on resident memory. Counters
// are atomic so /stats never takes the cache lock.
package engine

import (
	"container/list"
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/core"
	"repro/internal/topk"
	"repro/internal/vec"
)

// sig is the part of the options that selects WHICH output an analysis
// produces. Method and Schedule are excluded: every variant provably
// computes the same regions (the repo's oracle and property tests
// enforce it), so a CPT analysis may serve a Scan request and vice
// versa. Iterative likewise only changes the route, not the answer —
// but it exists for measurement, so requests carrying it are expected
// to arrive with NoCache anyway.
type sig struct {
	phi      int
	compOnly bool
}

func sigOf(o core.Options) sig {
	return sig{phi: o.Phi, compOnly: o.CompositionOnly}
}

// bucketKey identifies a subspace: the sorted query dimensions plus k.
type bucketKey string

func keyOf(q vec.Query, k int) bucketKey {
	buf := make([]byte, 0, 8*(q.Len()+1))
	buf = binary.AppendVarint(buf, int64(k))
	for _, d := range q.Dims {
		buf = binary.AppendVarint(buf, int64(d))
	}
	return bucketKey(buf)
}

// entry is one admitted analysis: the completed output it certifies and
// its innermost-region polytope, anchored at the weights it was computed
// at, which the containment and invalidation checks test against.
type entry struct {
	key  bucketKey
	sig  sig
	poly core.Polytope
	out  *core.Output
	size int64
	elem *list.Element
}

// CacheStats is a point-in-time snapshot of the cache counters, and the
// "cache" block of /stats as it stands.
type CacheStats struct {
	Hits       int64 `json:"hits"`        // Analyze served from an exact-weight anchor
	RegionHits int64 `json:"region_hits"` // TopK served by region containment
	Misses     int64 `json:"misses"`
	Bypasses   int64 `json:"bypasses"` // lookups skipped by request (NoCache)
	Evictions  int64 `json:"evictions"`
	Entries    int   `json:"entries"`
	Bytes      int64 `json:"bytes"`
}

type cache struct {
	mu      sync.Mutex
	buckets map[bucketKey][]*entry
	lru     *list.List // front = most recently used; values are *entry
	bytes   int64

	maxEntries int
	maxBytes   int64

	hits       atomic.Int64
	regionHits atomic.Int64
	misses     atomic.Int64
	bypasses   atomic.Int64
	evictions  atomic.Int64
	bytesGauge atomic.Int64
	entryGauge atomic.Int64
}

func newCache(maxEntries int, maxBytes int64) *cache {
	return &cache{
		buckets:    make(map[bucketKey][]*entry),
		lru:        list.New(),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
}

func (c *cache) stats() CacheStats {
	return CacheStats{
		Hits:       c.hits.Load(),
		RegionHits: c.regionHits.Load(),
		Misses:     c.misses.Load(),
		Bypasses:   c.bypasses.Load(),
		Evictions:  c.evictions.Load(),
		Entries:    int(c.entryGauge.Load()),
		Bytes:      c.bytesGauge.Load(),
	}
}

// lookupAnalyze serves a full analysis iff an anchor with the same
// subspace, k, φ-signature and exact weight vector exists. The returned
// Output shares the anchor's result and regions (read-only) but carries
// fresh zero metrics: no work was done, and the response's metering
// should say so.
func (c *cache) lookupAnalyze(q vec.Query, k int, opts core.Options) (*core.Output, bool) {
	key := keyOf(q, k)
	want := sigOf(opts)
	c.mu.Lock()
	for _, en := range c.buckets[key] {
		if en.sig == want && slices.Equal(en.poly.W, q.Weights) {
			c.lru.MoveToFront(en.elem)
			c.mu.Unlock()
			c.hits.Add(1)
			mCacheEvents.Inc("hit")
			return &core.Output{
				Query:   en.out.Query,
				K:       en.out.K,
				Result:  en.out.Result,
				Regions: en.out.Regions,
			}, true
		}
	}
	c.mu.Unlock()
	c.misses.Add(1)
	mCacheEvents.Inc("miss")
	return nil, false
}

// bypass counts one lookup skipped by request (NoCache), on both
// surfaces: /stats and /metrics.
func (c *cache) bypass() {
	c.bypasses.Add(1)
	mCacheEvents.Inc("bypass")
}

// lookupTopK serves a ranked result iff some anchor of the same
// subspace and k has the requested weights inside its regions'
// cross-polytope. Any φ-signature qualifies — every analysis certifies
// at least its innermost region.
func (c *cache) lookupTopK(q vec.Query, k int) ([]topk.Scored, bool) {
	key := keyOf(q, k)
	c.mu.Lock()
	for _, en := range c.buckets[key] {
		if !en.poly.Contains(q.Weights) {
			continue
		}
		c.lru.MoveToFront(en.elem)
		out := en.out
		c.mu.Unlock()
		c.regionHits.Add(1)
		mCacheEvents.Inc("hit-region")
		return rescore(out.Result, q.Weights), true
	}
	c.mu.Unlock()
	c.misses.Add(1)
	mCacheEvents.Inc("miss")
	return nil, false
}

// rescore rebuilds the ranked result at the requested weights from the
// cached query-subspace projections: same ids, exact scores, re-ranked
// by (score desc, id asc) — the canonical order — which also covers
// CompositionOnly anchors, whose certificate preserves the set but not
// the order. Projections are cloned (into one backing array): a computed
// answer hands the caller query-private slices, and a caller mutating a
// shared one would corrupt the cache for every later hit.
func rescore(res []topk.Scored, weights []float64) []topk.Scored {
	out := topk.Compact(res)
	for i := range out {
		out[i].Score = vec.Dot(weights, out[i].Proj)
	}
	slices.SortFunc(out, topk.ByRank)
	return out
}

// admit stores a completed analysis, replacing an existing anchor with
// the same signature and weights, then evicts from the LRU tail until
// both bounds hold. Outputs larger than the byte bound are not admitted
// at all (they would evict the whole cache and then themselves). out is
// retained as is, which is safe because core.ComputeView outputs never
// alias the run that produced them.
func (c *cache) admit(q vec.Query, k int, opts core.Options, out *core.Output) {
	en := &entry{key: keyOf(q, k), sig: sigOf(opts), poly: core.PolytopeOf(slices.Clone(q.Weights), out.Regions), out: out}
	en.size = entrySize(en)
	if en.size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	bucket := c.buckets[en.key]
	for _, old := range bucket {
		if old.sig == en.sig && slices.Equal(old.poly.W, en.poly.W) {
			// A concurrent identical computation already landed; keep the
			// incumbent (the outputs are interchangeable) and refresh it.
			c.lru.MoveToFront(old.elem)
			return
		}
	}
	en.elem = c.lru.PushFront(en)
	c.buckets[en.key] = append(bucket, en)
	c.bytes += en.size
	for c.lru.Len() > c.maxEntries || c.bytes > c.maxBytes {
		c.evictOldest()
	}
	c.publishGauges()
}

// evictOldest drops the LRU tail entry. Caller holds mu.
func (c *cache) evictOldest() {
	back := c.lru.Back()
	if back == nil {
		return
	}
	c.remove(back.Value.(*entry))
	c.evictions.Add(1)
	mCacheEvents.Inc("evict")
}

// remove unlinks an entry from both structures. Caller holds mu.
func (c *cache) remove(en *entry) {
	c.lru.Remove(en.elem)
	c.bytes -= en.size
	bucket := c.buckets[en.key]
	for i, cand := range bucket {
		if cand == en {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(c.buckets, en.key)
	} else {
		c.buckets[en.key] = bucket
	}
}

// publishGauges mirrors the size gauges into atomics for lock-free
// stats reads. Caller holds mu.
func (c *cache) publishGauges() {
	c.bytesGauge.Store(c.bytes)
	c.entryGauge.Store(int64(c.lru.Len()))
}

// entrySize counts the heap bytes an admitted entry retains: the entry
// and its LRU element, the anchor columns, the Output with its query,
// compact result (k Scored over one k×qlen projection array) and
// per-dimension metrics, the region structs with their perturbation
// schedules, and the entry's share of the bucket map. Slices count at
// capacity — that is what the allocator handed out.
func entrySize(en *entry) int64 {
	const (
		f64      = int64(unsafe.Sizeof(float64(0)))
		word     = int64(unsafe.Sizeof(int(0)))
		scored   = int64(unsafe.Sizeof(topk.Scored{}))
		regions  = int64(unsafe.Sizeof(core.Regions{}))
		perturb  = int64(unsafe.Sizeof(core.Perturbation{}))
		fixed    = int64(unsafe.Sizeof(entry{}) + unsafe.Sizeof(list.Element{}) + unsafe.Sizeof(core.Output{}))
		mapShare = 96 // bucket-map slot (key header, slice header, load-factor slack) + bucket slice slot
	)
	out := en.out
	size := fixed + mapShare + int64(len(en.key))
	size += f64 * int64(cap(en.poly.W)+cap(en.poly.Lo)+cap(en.poly.Hi)+cap(out.Query.Weights))
	size += word * int64(cap(out.Query.Dims)+cap(out.Metrics.EvaluatedPerDim))
	size += scored * int64(cap(out.Result))
	for _, r := range out.Result {
		size += f64 * int64(cap(r.Proj))
	}
	size += regions * int64(cap(out.Regions))
	for _, reg := range out.Regions {
		size += perturb * int64(cap(reg.Left)+cap(reg.Right))
	}
	return size
}
