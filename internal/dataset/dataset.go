// Package dataset provides the three evaluation datasets of §7.1 as
// synthetic equivalents (the originals are not redistributable; see
// docs/figures.md for the substitution rationale):
//
//   - WSJ: a sparse text corpus with Zipf-distributed document
//     frequencies and TF-IDF values — most tuples touch exactly one of a
//     random query's dimensions, which is what makes candidate pruning
//     shine (Fig. 6a, Fig. 10).
//   - KB: image-like feature vectors with moderate block correlation and
//     medium sparsity, so all three candidate classes are sizable
//     (Fig. 12).
//   - ST: dense multivariate-normal tuples with pairwise correlation 0.5
//     (the Matlab mvnrnd benchmark), where CL dominates and thresholding
//     carries CPT (Fig. 6b, Fig. 11).
//
// All generators are deterministic in their seed and emit tuples in
// [0,1]^m with per-dimension maxima normalized, matching the paper's
// data model.
package dataset

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/lists"
	"repro/internal/vec"
)

// Dataset is a generated collection plus the metadata query sampling
// needs (document frequencies per dimension).
type Dataset struct {
	Name   string
	Tuples []vec.Sparse
	M      int

	df []int // per-dimension document frequency
}

// New wraps raw tuples as a Dataset.
func New(name string, tuples []vec.Sparse, m int) *Dataset {
	d := &Dataset{Name: name, Tuples: tuples, M: m, df: make([]int, m)}
	for _, t := range tuples {
		for _, e := range t {
			d.df[e.Dim]++
		}
	}
	return d
}

// N returns the dataset cardinality.
func (d *Dataset) N() int { return len(d.Tuples) }

// Index builds an in-memory inverted-list index over the dataset.
func (d *Dataset) Index() *lists.Overlay { return lists.NewMemIndex(d.Tuples, d.M) }

// Save persists the dataset in the on-disk storage formats.
func (d *Dataset) Save(tuplePath, listPath string) error {
	return lists.SaveDataset(tuplePath, listPath, d.Tuples, d.M)
}

// SampleQuery draws a query over qlen distinct dimensions whose inverted
// lists have at least minDF entries (so top-k is well-populated), with
// weights uniform in [0.2, 1] — the paper's random query formation.
func (d *Dataset) SampleQuery(rng *rand.Rand, qlen, minDF int) (vec.Query, error) {
	var eligible []int
	for dim, f := range d.df {
		if f >= minDF {
			eligible = append(eligible, dim)
		}
	}
	if len(eligible) < qlen {
		return vec.Query{}, fmt.Errorf("dataset %s: only %d dimensions with df >= %d, need %d",
			d.Name, len(eligible), minDF, qlen)
	}
	perm := rng.Perm(len(eligible))[:qlen]
	dims := make([]int, qlen)
	weights := make([]float64, qlen)
	for i, p := range perm {
		dims[i] = eligible[p]
		weights[i] = 0.2 + float64(0.8*rng.Float64())
	}
	return vec.NewQuery(dims, weights)
}

// WSJConfig parameterizes the text-corpus generator. Zero fields take the
// scaled-down defaults; the paper-scale corpus is Docs=172891,
// Vocab=181978.
type WSJConfig struct {
	Docs      int     // number of documents (default 8000)
	Vocab     int     // vocabulary size (default 12000)
	MeanTerms int     // mean distinct terms per document (default 60)
	ZipfS     float64 // Zipf skew of term popularity (default 1.1)
	Seed      int64
}

func (c *WSJConfig) defaults() {
	if c.Docs == 0 {
		c.Docs = 8000
	}
	if c.Vocab == 0 {
		c.Vocab = 12000
	}
	if c.MeanTerms == 0 {
		c.MeanTerms = 60
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
}

// GenerateWSJ builds the synthetic WSJ-like corpus: Zipfian term
// popularity gives uneven inverted-list lengths, values are
// TF·IDF normalized per dimension, and term co-occurrence for randomly
// chosen query terms is low.
func GenerateWSJ(cfg WSJConfig) *Dataset {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Vocab-1))

	// One flat array of draws in document order (docEnd marks where each
	// document's run stops) and a vocabulary-sized stamp table: no map and
	// no allocation per document or per term.
	type draw struct {
		term int32
		tf   float64
	}
	draws := make([]draw, 0, cfg.Docs*cfg.MeanTerms*5/4)
	docEnd := make([]int, cfg.Docs)
	df := make([]int, cfg.Vocab)
	drawnBy := make([]int32, cfg.Vocab) // doc+1 of the last document that drew the term
	for doc := 0; doc < cfg.Docs; doc++ {
		// Log-normal distinct-term count, clamped.
		nTerms := int(math.Exp(math.Log(float64(cfg.MeanTerms)) + float64(0.5*rng.NormFloat64())))
		if nTerms < 5 {
			nTerms = 5
		}
		if nTerms > cfg.Vocab/2 {
			nTerms = cfg.Vocab / 2
		}
		for drawn := 0; drawn < nTerms; {
			term := int(zipf.Uint64())
			if drawnBy[term] == int32(doc+1) {
				continue
			}
			drawnBy[term] = int32(doc + 1)
			drawn++
			tf := 1 + float64(rng.ExpFloat64()*2) // term frequency, heavy-tailed
			draws = append(draws, draw{term: int32(term), tf: tf})
			df[term]++
		}
		docEnd[doc] = len(draws)
	}

	// TF-IDF values, normalized to (0,1] per dimension. Terms appearing
	// in a single document are dropped, as in the paper's preprocessing
	// (their idf stays 0 here, and with it their maximum).
	idf := make([]float64, cfg.Vocab)
	maxV := make([]float64, cfg.Vocab)
	for term, f := range df {
		if f >= 2 {
			idf[term] = math.Log(float64(cfg.Docs) / float64(f))
		}
	}
	for _, d := range draws {
		if v := d.tf * idf[d.term]; v > maxV[d.term] {
			maxV[d.term] = v
		}
	}
	entries := make([]vec.Entry, 0, len(draws))
	tuples := make([]vec.Sparse, cfg.Docs)
	start := 0
	for doc, end := range docEnd {
		first := len(entries)
		for _, d := range draws[start:end] {
			if maxV[d.term] == 0 {
				continue
			}
			entries = append(entries, vec.Entry{Dim: int(d.term), Val: d.tf * idf[d.term] / maxV[d.term]})
		}
		t := vec.Sparse(entries[first:len(entries):len(entries)])
		slices.SortFunc(t, func(a, b vec.Entry) int { return cmp.Compare(a.Dim, b.Dim) })
		tuples[doc] = t
		start = end
	}
	return New("WSJ", tuples, cfg.Vocab)
}

// KBConfig parameterizes the image-feature generator. The paper-scale
// dataset is Images=28452, Features=9693.
type KBConfig struct {
	Images    int     // default 8000
	Features  int     // default 1200
	BlockSize int     // correlated feature block width (default 20)
	Rho       float64 // intra-block correlation (default 0.55)
	Seed      int64
}

func (c *KBConfig) defaults() {
	if c.Images == 0 {
		c.Images = 8000
	}
	if c.Features == 0 {
		c.Features = 1200
	}
	if c.BlockSize == 0 {
		c.BlockSize = 20
	}
	if c.Rho == 0 {
		c.Rho = 0.55
	}
}

// GenerateKB builds the synthetic KB-like feature set: features come in
// correlated blocks; each image activates a subset of blocks, so tuples
// have medium sparsity and random queries see all of C0/CH/CL.
func GenerateKB(cfg KBConfig) *Dataset {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	nBlocks := (cfg.Features + cfg.BlockSize - 1) / cfg.BlockSize
	rootRho := math.Sqrt(cfg.Rho)
	rootRest := math.Sqrt(1 - cfg.Rho)

	tuples := make([]vec.Sparse, cfg.Images)
	for img := 0; img < cfg.Images; img++ {
		var entries []vec.Entry
		for b := 0; b < nBlocks; b++ {
			if rng.Float64() > 0.35 {
				continue // block inactive for this image
			}
			z := rng.NormFloat64() // shared block factor
			lo := b * cfg.BlockSize
			hi := lo + cfg.BlockSize
			if hi > cfg.Features {
				hi = cfg.Features
			}
			for f := lo; f < hi; f++ {
				if rng.Float64() > 0.7 {
					continue
				}
				v := 0.5 + float64(0.22*(float64(rootRho*z)+float64(rootRest*rng.NormFloat64())))
				if v <= 0 {
					continue
				}
				if v > 1 {
					v = 1
				}
				entries = append(entries, vec.Entry{Dim: f, Val: v})
			}
		}
		if len(entries) == 0 {
			f := rng.Intn(cfg.Features)
			entries = append(entries, vec.Entry{Dim: f, Val: 0.1 + float64(0.9*rng.Float64())})
		}
		t, err := vec.NewSparse(entries)
		if err != nil {
			panic(err)
		}
		tuples[img] = t
	}
	return New("KB", tuples, cfg.Features)
}

// STConfig parameterizes the correlated synthetic generator. The paper
// uses N=1e6, M=20, Rho=0.5 (Matlab mvnrnd).
type STConfig struct {
	N     int     // default 50000
	M     int     // default 20
	Rho   float64 // pairwise correlation (default 0.5)
	Seed  int64
	Mu    float64 // mean (default 0.5)
	Sigma float64 // marginal std dev (default 0.15)
}

func (c *STConfig) defaults() {
	if c.N == 0 {
		c.N = 50000
	}
	if c.M == 0 {
		c.M = 20
	}
	if c.Rho == 0 {
		c.Rho = 0.5
	}
	if c.Mu == 0 {
		c.Mu = 0.5
	}
	if c.Sigma == 0 {
		c.Sigma = 0.15
	}
}

// GenerateST draws N tuples from a multivariate normal with constant
// pairwise correlation Rho via the Cholesky factor of the correlation
// matrix (our stand-in for mvnrnd), clipped to [0,1]^M. Tuples cluster
// along the [0,…,0]–[1,…,1] diagonal exactly as the paper describes.
//
// The one generator draws the normals in tuple order, up to a ring of
// 2·GOMAXPROCS chunks of stChunk tuples ahead of GOMAXPROCS workers that
// apply the transform: each tuple's arithmetic is the sequential one, so
// the output does not depend on the worker count.
func GenerateST(cfg STConfig) *Dataset {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	corr := constantCorrelation(cfg.M, cfg.Rho)
	L, err := Cholesky(corr)
	if err != nil {
		panic(err)
	}
	// Every tuple is carved from one backing array, M entries a tuple;
	// the capped slices keep an append through one tuple out of its
	// neighbour.
	m := cfg.M
	entries := make([]vec.Entry, cfg.N*m)
	tuples := make([]vec.Sparse, cfg.N)
	type chunk struct {
		first int       // the chunk's first tuple
		z     []float64 // its draws, m per tuple
	}
	workers := runtime.GOMAXPROCS(0)
	ring := 2 * workers
	// Both channels hold every buffer: a worker never blocks handing one
	// back, and the generator waits only for a free one.
	free := make(chan []float64, ring)
	drawn := make(chan chunk, ring)
	for range ring {
		free <- make([]float64, stChunk*m)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for c := range drawn {
				for i := 0; i*m < len(c.z); i++ {
					id := c.first + i
					out := entries[id*m : id*m : (id+1)*m]
					if t := stTuple(out, L, c.z[i*m:(i+1)*m], cfg.Mu, cfg.Sigma); len(t) > 0 {
						tuples[id] = t[:len(t):len(t)]
					}
				}
				free <- c.z
			}
		}()
	}
	for first := 0; first < cfg.N; first += stChunk {
		z := (<-free)[:min(stChunk, cfg.N-first)*m]
		for j := range z {
			z[j] = rng.NormFloat64()
		}
		drawn <- chunk{first, z}
	}
	close(drawn)
	wg.Wait()
	return New("ST", tuples, m)
}

// stChunk is how many tuples GenerateST hands a worker at once.
const stChunk = 1024

// stTuple appends to out the tuple x = mu + sigma·L·z, clipped to
// [0,1], and returns it; coordinates at or below 0 are not stored.
func stTuple(out vec.Sparse, L [][]float64, z []float64, mu, sigma float64) vec.Sparse {
	for r, row := range L {
		s, zr := 0.0, z[:r+1]
		for c, l := range row[:len(zr)] {
			s += float64(l * zr[c])
		}
		v := mu + float64(sigma*s)
		if v > 1 {
			v = 1
		}
		if v > 0 {
			out = append(out, vec.Entry{Dim: r, Val: v})
		}
	}
	return out
}

// constantCorrelation builds (1-rho)·I + rho·J.
func constantCorrelation(m int, rho float64) [][]float64 {
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m)
		for j := range a[i] {
			if i == j {
				a[i][j] = 1
			} else {
				a[i][j] = rho
			}
		}
	}
	return a
}

// Cholesky returns the lower-triangular L with L·Lᵀ = a, or an error if
// a is not positive definite.
func Cholesky(a [][]float64) ([][]float64, error) {
	n := len(a)
	L := make([][]float64, n)
	for i := range L {
		L[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a[i][j]
			for k := 0; k < j; k++ {
				s -= float64(L[i][k] * L[j][k])
			}
			if i == j {
				if s <= 0 {
					return nil, fmt.Errorf("dataset: matrix not positive definite at %d (pivot %v)", i, s)
				}
				L[i][i] = math.Sqrt(s)
			} else {
				L[i][j] = s / L[j][j]
			}
		}
	}
	return L, nil
}

// Stats summarizes structural properties of a dataset; the generators'
// tests pin these to the regimes the figures depend on.
type Stats struct {
	N, M         int
	Postings     int
	MeanNNZ      float64
	MaxListLen   int
	MedListLen   int
	GiniListLen  float64 // inequality of list lengths (Zipf signature)
	MeanPairCorr float64 // average pairwise correlation over sampled dims
}

// ComputeStats derives Stats, sampling up to sampleDims dimensions for
// the correlation estimate.
func ComputeStats(d *Dataset, rng *rand.Rand, sampleDims int) Stats {
	st := Stats{N: d.N(), M: d.M}
	nnz := 0
	var lens []int
	for _, f := range d.df {
		if f > 0 {
			lens = append(lens, f)
			nnz += f
		}
	}
	st.Postings = nnz
	st.MeanNNZ = float64(nnz) / float64(max(1, d.N()))
	sort.Ints(lens)
	if len(lens) > 0 {
		st.MaxListLen = lens[len(lens)-1]
		st.MedListLen = lens[len(lens)/2]
		st.GiniListLen = gini(lens)
	}
	st.MeanPairCorr = meanPairwiseCorrelation(d, rng, sampleDims)
	return st
}

// gini computes the Gini coefficient of sorted positive values.
func gini(sorted []int) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	var cum, total float64
	for i, v := range sorted {
		cum += float64(float64(v) * float64(2*(i+1)-n-1))
		total += float64(v)
	}
	if total == 0 {
		return 0
	}
	return cum / (float64(n) * total)
}

// meanPairwiseCorrelation estimates the average Pearson correlation
// between sampled pairs of populated dimensions.
func meanPairwiseCorrelation(d *Dataset, rng *rand.Rand, sampleDims int) float64 {
	var dims []int
	for dim, f := range d.df {
		if f >= d.N()/20 && f >= 2 {
			dims = append(dims, dim)
		}
	}
	if len(dims) < 2 {
		return 0
	}
	if sampleDims > len(dims) {
		sampleDims = len(dims)
	}
	perm := rng.Perm(len(dims))[:sampleDims]
	// Densify the sampled columns in one pass over the tuples.
	colOf := make([]int32, d.M) // sampled dimension → its column + 1
	cols := make([][]float64, sampleDims)
	for i, p := range perm {
		colOf[dims[p]] = int32(i + 1)
		cols[i] = make([]float64, d.N())
	}
	for id, t := range d.Tuples {
		for _, e := range t {
			if c := colOf[e.Dim]; c > 0 {
				cols[c-1][id] = e.Val
			}
		}
	}
	// Center each column once and keep its sum of squares: a pair then
	// costs one pass instead of three.
	sq := make([]float64, sampleDims)
	for i, col := range cols {
		sq[i] = center(col)
	}
	var sum float64
	var cnt int
	for i := 0; i < len(cols); i++ {
		for j := i + 1; j < len(cols); j++ {
			sum += pearson(cols[i], cols[j], sq[i], sq[j])
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// center subtracts col's mean from it in place and returns the sum of
// the squared deviations.
func center(col []float64) float64 {
	var mean float64
	for _, v := range col {
		mean += v
	}
	mean /= float64(len(col))
	var sq float64
	for i, v := range col {
		dv := v - mean
		col[i] = dv
		sq += float64(dv * dv)
	}
	return sq
}

// pearson correlates two centered columns whose sums of squares are va
// and vb.
func pearson(a, b []float64, va, vb float64) float64 {
	if va == 0 || vb == 0 {
		return 0
	}
	var cov float64
	for i := range a {
		cov += float64(a[i] * b[i])
	}
	return cov / math.Sqrt(va*vb)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
