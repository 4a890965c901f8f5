package dataset

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/lists"
)

func TestGenerateWSJShape(t *testing.T) {
	d := GenerateWSJ(WSJConfig{Docs: 2000, Vocab: 4000, Seed: 1})
	if d.N() != 2000 || d.M != 4000 {
		t.Fatalf("n=%d m=%d", d.N(), d.M)
	}
	rng := rand.New(rand.NewSource(2))
	st := ComputeStats(d, rng, 12)
	if st.MeanNNZ < 10 || st.MeanNNZ > 400 {
		t.Errorf("mean nnz = %v, outside plausible corpus range", st.MeanNNZ)
	}
	// Zipf popularity ⇒ strongly unequal list lengths.
	if st.GiniListLen < 0.4 {
		t.Errorf("gini of list lengths = %v, want >= 0.4 (Zipf signature)", st.GiniListLen)
	}
	if st.MaxListLen <= 4*st.MedListLen {
		t.Errorf("max list %d vs median %d: lists not uneven enough", st.MaxListLen, st.MedListLen)
	}
	// Near-zero correlation between randomly sampled common terms.
	if math.Abs(st.MeanPairCorr) > 0.22 {
		t.Errorf("mean pairwise correlation = %v, want ~0 for text", st.MeanPairCorr)
	}
	for id, tp := range d.Tuples {
		if err := tp.Validate(); err != nil {
			t.Fatalf("doc %d: %v", id, err)
		}
	}
}

// TestWSJSingletonDominance: for random queries on the corpus, tuples
// touching exactly one query dimension must dominate — the regime in
// which pruning is effective (Fig. 6a).
func TestWSJSingletonDominance(t *testing.T) {
	d := GenerateWSJ(WSJConfig{Docs: 3000, Vocab: 5000, Seed: 3})
	rng := rand.New(rand.NewSource(4))
	single, multi := 0, 0
	for trial := 0; trial < 10; trial++ {
		q, err := d.SampleQuery(rng, 4, 40)
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range d.Tuples {
			nz := 0
			for _, c := range q.Project(tp) {
				if c != 0 {
					nz++
				}
			}
			switch {
			case nz == 1:
				single++
			case nz > 1:
				multi++
			}
		}
	}
	if single < 5*multi {
		t.Errorf("singleton/multi = %d/%d; want singletons to dominate strongly", single, multi)
	}
}

func TestGenerateKBShape(t *testing.T) {
	d := GenerateKB(KBConfig{Images: 2000, Features: 600, Seed: 5})
	if d.N() != 2000 || d.M != 600 {
		t.Fatalf("n=%d m=%d", d.N(), d.M)
	}
	rng := rand.New(rand.NewSource(6))
	st := ComputeStats(d, rng, 16)
	// Moderate sparsity: a fair share of the features per image.
	frac := st.MeanNNZ / float64(d.M)
	if frac < 0.05 || frac > 0.6 {
		t.Errorf("mean active fraction = %v, want medium sparsity", frac)
	}
	for _, tp := range d.Tuples {
		if err := tp.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGenerateSTCorrelation(t *testing.T) {
	d := GenerateST(STConfig{N: 4000, M: 10, Rho: 0.5, Seed: 7})
	rng := rand.New(rand.NewSource(8))
	st := ComputeStats(d, rng, 10)
	if st.MeanPairCorr < 0.3 || st.MeanPairCorr > 0.7 {
		t.Errorf("mean pairwise correlation = %v, want ≈ 0.5", st.MeanPairCorr)
	}
	// Dense tuples: nearly all coordinates populated.
	if st.MeanNNZ < float64(d.M)*0.9 {
		t.Errorf("mean nnz = %v of %d, want dense", st.MeanNNZ, d.M)
	}
	for _, tp := range d.Tuples {
		if err := tp.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCholesky(t *testing.T) {
	a := constantCorrelation(6, 0.5)
	L, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// L Lᵀ must reproduce a.
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			s := 0.0
			for k := 0; k < 6; k++ {
				s += L[i][k] * L[j][k]
			}
			if math.Abs(s-a[i][j]) > 1e-12 {
				t.Fatalf("LLt[%d][%d] = %v, want %v", i, j, s, a[i][j])
			}
		}
	}
	// Non-PD matrix must be rejected.
	bad := [][]float64{{1, 2}, {2, 1}}
	if _, err := Cholesky(bad); err == nil {
		t.Fatal("non-positive-definite matrix accepted")
	}
}

func TestSampleQuery(t *testing.T) {
	d := GenerateST(STConfig{N: 500, M: 8, Seed: 9})
	rng := rand.New(rand.NewSource(10))
	q, err := d.SampleQuery(rng, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != 4 {
		t.Fatalf("qlen = %d", q.Len())
	}
	for i, dim := range q.Dims {
		if d.df[dim] < 10 {
			t.Errorf("dim %d has df %d < 10", dim, d.df[dim])
		}
		if q.Weights[i] < 0.2 || q.Weights[i] > 1 {
			t.Errorf("weight %v outside [0.2,1]", q.Weights[i])
		}
	}
	if _, err := d.SampleQuery(rng, 4, d.N()+1); err == nil {
		t.Fatal("impossible df threshold accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := GenerateKB(KBConfig{Images: 300, Features: 80, Seed: 11})
	dir := t.TempDir()
	tp, lp := filepath.Join(dir, "t.dat"), filepath.Join(dir, "l.dat")
	if err := d.Save(tp, lp); err != nil {
		t.Fatal(err)
	}
	ix, err := lists.OpenDiskIndex(tp, lp)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.NumTuples() != d.N() || ix.Dim() != d.M {
		t.Fatalf("reload: n=%d m=%d", ix.NumTuples(), ix.Dim())
	}
	for _, id := range []int{0, 17, 299} {
		got := ix.Tuple(id)
		want := d.Tuples[id]
		if len(got) != len(want) {
			t.Fatalf("tuple %d mismatch", id)
		}
	}
}

func TestGini(t *testing.T) {
	if g := gini([]int{5, 5, 5, 5}); math.Abs(g) > 1e-12 {
		t.Errorf("gini of equal values = %v, want 0", g)
	}
	if g := gini([]int{0, 0, 0, 100}); g < 0.7 {
		t.Errorf("gini of concentrated values = %v, want high", g)
	}
}

func TestDeterminism(t *testing.T) {
	a := GenerateWSJ(WSJConfig{Docs: 300, Vocab: 500, Seed: 42})
	b := GenerateWSJ(WSJConfig{Docs: 300, Vocab: 500, Seed: 42})
	if a.N() != b.N() {
		t.Fatal("nondeterministic cardinality")
	}
	for i := range a.Tuples {
		if len(a.Tuples[i]) != len(b.Tuples[i]) {
			t.Fatalf("doc %d differs between runs", i)
		}
		for j := range a.Tuples[i] {
			if a.Tuples[i][j] != b.Tuples[i][j] {
				t.Fatalf("doc %d entry %d differs", i, j)
			}
		}
	}
}
