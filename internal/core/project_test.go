package core

import (
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/fixture"
	"repro/internal/lists"
	"repro/internal/storage"
	"repro/internal/vec"
)

// TestProjectIsTuple holds every lists.Index implementation to the
// contract of the query path's random access: Project writes what
// vec.Query.ProjectInto makes of Tuple(id), and both — and the
// charge-only call with no dimensions — cost the meter the same reads,
// bytes and pool bypasses. Covered: MemIndex; DiskIndex; Overlay over
// the disk index with inserted, replaced and deleted tuples on both
// sides of the base boundary.
func TestProjectIsTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(1601))
	cs := fixture.RandCase(rng, 300, 10, 4, 5)
	n, m := len(cs.Tuples), cs.M
	dir := t.TempDir()
	tp, lp := filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")
	if err := lists.SaveDataset(tp, lp, cs.Tuples, m); err != nil {
		t.Fatal(err)
	}
	disk, err := lists.OpenDiskIndex(tp, lp)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	ov := lists.NewOverlay(disk)
	must := func(_ vec.Sparse, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := ov.Insert(cs.Tuples[rng.Intn(n)]); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range rng.Perm(n + 20)[:60] { // base and inserted ids alike
		if rng.Intn(2) == 0 {
			must(ov.Update(id, cs.Tuples[rng.Intn(n)]))
		} else {
			must(ov.Delete(id))
		}
	}

	mem := lists.NewMemIndex(slices.Clone(cs.Tuples), m)
	for _, tc := range []struct {
		name   string
		ix     lists.Index
		lo, hi int
	}{
		{"mem", mem, 0, n},
		{"disk", disk, 0, n},
		{"overlay", ov, 0, n + 20},
	} {
		for id := tc.lo; id < tc.hi; id++ {
			dims := rng.Perm(m)[:1+rng.Intn(m)]
			slices.Sort(dims)
			var viaTuple, viaProject, chargeOnly storage.IOStats
			want := vec.Query{Dims: dims}.Project(tc.ix.WithStats(&viaTuple).Tuple(id))
			got := make([]float64, len(dims))
			for i := range got {
				got[i] = -1 // every slot must be written, zeros included
			}
			tc.ix.WithStats(&viaProject).Project(id, dims, got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: tuple %d on %v: projected %v, want %v", tc.name, id, dims, got, want)
			}
			tc.ix.WithStats(&chargeOnly).Project(id, nil, nil)
			charges := func(st *storage.IOStats) [3]int64 {
				_, rnd, bytes := st.Snapshot()
				return [3]int64{rnd, bytes, st.Bypasses()}
			}
			if a, b, c := charges(&viaTuple), charges(&viaProject), charges(&chargeOnly); a != b || a != c || a[0] != 1 {
				t.Fatalf("%s: tuple %d: Tuple charged %v, Project %v, charge-only %v", tc.name, id, a, b, c)
			}
		}
	}
}
