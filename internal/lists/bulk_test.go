package lists

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/storage"
	"repro/internal/vec"
)

// comparePostings is the order the index promises — descending value,
// ties by ascending id — written as the comparator the list build used
// to sort with. It survives here as the kernel's reference.
func comparePostings(a, b storage.Posting) int {
	switch {
	case a.Val > b.Val:
		return -1
	case a.Val < b.Val:
		return 1
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	default:
		return 0
	}
}

// referencePostings builds the lists the slow, obvious way.
func referencePostings(tuples []vec.Sparse) map[int][]storage.Posting {
	ref := map[int][]storage.Posting{}
	for id, t := range tuples {
		for _, e := range t {
			ref[e.Dim] = append(ref[e.Dim], storage.Posting{ID: id, Val: e.Val})
		}
	}
	for _, l := range ref {
		slices.SortFunc(l, comparePostings)
	}
	return ref
}

// awkwardTuples draws tuples whose coordinates come from a small pool
// full of ties and edge values, over m dimensions of which some stay
// empty, some get a single posting, and dimension 0 gets a list long
// enough for the radix path.
func awkwardTuples(rng *rand.Rand, n, m int) []vec.Sparse {
	// Ties, 1.0 and its neighbour, stored zeros (which sort last among
	// the non-negative), subnormals and the smallest normal, and two
	// negatives: the data model has none, but the key orders them too.
	pool := []float64{
		1.0, 1.0, 0.5, 0.5, 0.25, 0.1, 0.1, math.Nextafter(0.1, 1), math.Nextafter(1, 0),
		0, math.SmallestNonzeroFloat64, 5e-324 * 7, 2.2250738585072014e-308,
		1e-300, 1e-9, 0.999999999, -0.25, -1,
	}
	tuples := make([]vec.Sparse, n)
	for id := range tuples {
		var t vec.Sparse
		for d := 0; d < m; d++ {
			switch {
			case d%5 == 4: // empty dimension
			case d%5 == 3: // single posting, owned by one tuple
				if id == d%n {
					t = append(t, vec.Entry{Dim: d, Val: rng.Float64()})
				}
			case d == 0 || rng.Intn(3) == 0:
				v := pool[rng.Intn(len(pool))]
				if rng.Intn(4) == 0 {
					v = rng.Float64()
				}
				t = append(t, vec.Entry{Dim: d, Val: v})
			}
		}
		tuples[id] = t
	}
	return tuples
}

// storable drops the entries a tuple file refuses (values outside
// (0, 1]) from awkward tuples: the list build orders every float, the
// files hold only what the data model admits.
func storable(tuples []vec.Sparse) []vec.Sparse {
	out := make([]vec.Sparse, len(tuples))
	for id, t := range tuples {
		for _, e := range t {
			if e.Val > 0 && e.Val <= 1 {
				out[id] = append(out[id], e)
			}
		}
	}
	return out
}

// prefixTieTuples draws n tuples over m dimensions whose values crowd a
// few 32-bit key prefixes — runs of up to 400 ulp-neighbours, one group
// straddling two prefixes — with one in five an exact repeat, shuffled:
// the radix pass leaves hundreds of postings tied, for the tie pass to
// rank on the full key and the id.
func prefixTieTuples(rng *rand.Rand, n, m int) []vec.Sparse {
	// The last base's low 32 bits are 200 ulps short of a carry into the
	// prefix.
	straddle := math.Float64frombits((math.Float64bits(0.6) | 0xffffffff) - 200)
	bases := []float64{0.3, 0.3 + 0x1p-33, 1 - 0x1p-40, straddle}
	tuples := make([]vec.Sparse, n)
	for d := 0; d < m; d++ {
		vals := make([]float64, n)
		for i := range vals {
			if i > 0 && rng.Intn(5) == 0 {
				vals[i] = vals[rng.Intn(i)]
				continue
			}
			v := bases[rng.Intn(len(bases))]
			for k := rng.Intn(400); k > 0; k-- {
				v = math.Nextafter(v, 2)
			}
			vals[i] = v
		}
		rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		for id, v := range vals {
			tuples[id] = append(tuples[id], vec.Entry{Dim: d, Val: v})
		}
	}
	return tuples
}

// TestBulkOrderMatchesComparator: the kernel's list order is the
// comparator's, in all three of its outputs, whatever the list length
// (both sides of radixCutover), however crowded the 32-bit key prefixes
// and whatever the worker count; and the files it writes (of the
// storable entries) do not depend on the worker count.
func TestBulkOrderMatchesComparator(t *testing.T) {
	type input struct {
		name   string
		tuples []vec.Sparse
		m      int
	}
	var inputs []input
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 12; trial++ {
		n := []int{1, 7, radixCutover - 1, radixCutover, radixCutover + 1, 900, 3000}[trial%7]
		m := 3 + rng.Intn(12)
		inputs = append(inputs, input{fmt.Sprintf("trial %d", trial), awkwardTuples(rng, n, m), m})
	}
	ties := prefixTieTuples(rand.New(rand.NewSource(41)), 3000, 3)
	inputs = append(inputs, input{"prefix ties", ties, 3})
	prefixes := map[uint64]int{}
	for _, tp := range ties {
		prefixes[SortKey(tp[0].Val)>>32]++
	}
	if len(prefixes) > 10 {
		t.Fatalf("prefix ties: %d distinct prefixes among 3000 values", len(prefixes))
	}

	for _, in := range inputs {
		name, tuples, m := in.name, in.tuples, in.m
		ref := referencePostings(tuples)
		rows := BuildPostings(tuples)
		if len(rows) != len(ref) {
			t.Fatalf("%s: BuildPostings has %d lists, reference %d", name, len(rows), len(ref))
		}
		cols := BuildColumnar(tuples)
		for d, want := range ref {
			if !slices.EqualFunc(rows[d], want, samePosting) {
				t.Fatalf("%s dim %d: BuildPostings order differs from the comparator's", name, d)
			}
			if cols[d].Len() != len(want) {
				t.Fatalf("%s dim %d: columnar length %d, want %d", name, d, cols[d].Len(), len(want))
			}
			for i, w := range want {
				if !samePosting(cols[d].At(i), w) {
					t.Fatalf("%s dim %d posting %d: columnar %v, want %v", name, d, i, cols[d].At(i), w)
				}
			}
		}

		dir := t.TempDir()
		tuples = storable(tuples)
		ref = referencePostings(tuples)
		var files [2][2][]byte
		for wi, workers := range []int{1, 5} {
			tp, lp := filepath.Join(dir, "t.dat"), filepath.Join(dir, "l.dat")
			if _, err := saveDataset(tp, lp, tuples, m, workers); err != nil {
				t.Fatal(err)
			}
			for fi, p := range []string{tp, lp} {
				raw, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				files[wi][fi] = raw
			}
			if wi == 1 {
				continue
			}
			ix, err := OpenDiskIndex(tp, lp)
			if err != nil {
				t.Fatal(err)
			}
			for d := 0; d < m; d++ {
				if ix.ListLen(d) != len(ref[d]) {
					t.Fatalf("%s dim %d: file list length %d, want %d", name, d, ix.ListLen(d), len(ref[d]))
				}
				cur := ix.Cursor(d)
				for i, w := range ref[d] {
					if p, ok := cur.Next(); !ok || !samePosting(p, w) {
						t.Fatalf("%s dim %d posting %d: file has %v, want %v", name, d, i, p, w)
					}
				}
			}
			ix.Close()
		}
		if !bytes.Equal(files[0][0], files[1][0]) || !bytes.Equal(files[0][1], files[1][1]) {
			t.Fatalf("%s: files written by 1 worker and by 5 differ", name)
		}
	}
}

// samePosting compares bit patterns, so that a 0 is not taken for a -0.
func samePosting(a, b storage.Posting) bool {
	return a.ID == b.ID && math.Float64bits(a.Val) == math.Float64bits(b.Val)
}

// TestSortKeyRoundTrip: keyValue inverts SortKey on every kind of float,
// and key order is descending numeric order.
func TestSortKeyRoundTrip(t *testing.T) {
	vals := []float64{math.Inf(1), 1, math.Nextafter(1, 0), 0.5, 1e-300, math.SmallestNonzeroFloat64, 0,
		-math.SmallestNonzeroFloat64, -0.5, -1, math.Inf(-1)}
	for i, v := range vals {
		if got := keyValue(SortKey(v)); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("keyValue(SortKey(%v)) = %v", v, got)
		}
		if i > 0 && SortKey(vals[i-1]) >= SortKey(v) {
			t.Fatalf("key of %v does not sort before key of %v", vals[i-1], v)
		}
	}
}

// TestSaveDatasetLeavesNoDebris: when either file cannot be written the
// call fails and neither file is left behind — from the bulk loader and
// from the checkpoint's merge alike.
func TestSaveDatasetLeavesNoDebris(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	tuples := storable(awkwardTuples(rand.New(rand.NewSource(3)), 50, 6))
	good := t.TempDir()
	if err := SaveDataset(filepath.Join(good, "t.dat"), filepath.Join(good, "l.dat"), tuples, 6); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenDiskIndex(filepath.Join(good, "t.dat"), filepath.Join(good, "l.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	ov := NewOverlay(disk)
	if _, err := ov.Insert(vec.MustSparse(vec.Entry{Dim: 0, Val: 0.5})); err != nil {
		t.Fatal(err)
	}
	saves := map[string]func(tp, lp string) error{
		"SaveDataset": func(tp, lp string) error { return SaveDataset(tp, lp, tuples, 6) },
		"SaveIndex":   func(tp, lp string) error { _, err := SaveIndex(tp, lp, ov); return err },
	}
	for name, save := range saves {
		for _, broken := range []string{"t.dat", "l.dat"} {
			dir := t.TempDir()
			// The writer follows the link, every write to /dev/full fails
			// with ENOSPC, and removing the "file" removes only the link.
			if err := os.Symlink("/dev/full", filepath.Join(dir, broken)); err != nil {
				t.Fatal(err)
			}
			err := save(filepath.Join(dir, "t.dat"), filepath.Join(dir, "l.dat"))
			if err == nil {
				t.Fatalf("%s on a full device: %s succeeded", broken, name)
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Fatalf("%s on a full device: %s left %d entries behind (%v)", broken, name, len(left), err)
			}
		}
	}
}
