package lists_test

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lists"
	"repro/internal/vec"
)

// mirror drives the same mutations into an overlay over the disk files
// and one over a MemIndex of the same tuples, and keeps what the test
// needs to predict SaveIndex's copy counts: the live view, the base ids
// some write has overridden, and the dimensions that lost a base posting.
type mirror struct {
	t      *testing.T
	disk   *lists.Overlay
	mem    *lists.Overlay
	baseN  int
	keep   int          // the tuple live never picks
	shadow []vec.Sparse // nil = deleted
	over   map[int]bool
	lost   map[int]bool
}

// override notes the first write to a base tuple, whose postings die.
func (mr *mirror) override(id int, old vec.Sparse) {
	if id >= mr.baseN || mr.over[id] {
		return
	}
	mr.over[id] = true
	for _, e := range old {
		mr.lost[e.Dim] = true
	}
}

// merged returns the dimensions whose base list cannot be copied as it
// stands: they lost a base posting or hold a posting of a tuple the
// overlay keeps.
func (mr *mirror) merged() map[int]bool {
	out := map[int]bool{}
	for d := range mr.lost {
		out[d] = true
	}
	for id, tu := range mr.shadow {
		if id >= mr.baseN || mr.over[id] {
			for _, e := range tu {
				out[e.Dim] = true
			}
		}
	}
	return out
}

func (mr *mirror) insert(tu vec.Sparse) int {
	mr.t.Helper()
	id, err := mr.disk.Insert(tu)
	id2, err2 := mr.mem.Insert(tu)
	if err != nil || err2 != nil || id != id2 || id != len(mr.shadow) {
		mr.t.Fatalf("insert: ids %d/%d (want %d), errs %v/%v", id, id2, len(mr.shadow), err, err2)
	}
	mr.shadow = append(mr.shadow, tu)
	return id
}

func (mr *mirror) update(id int, tu vec.Sparse) {
	mr.t.Helper()
	old, err := mr.disk.Update(id, tu)
	_, err2 := mr.mem.Update(id, tu)
	if err != nil || err2 != nil {
		mr.t.Fatalf("update %d: %v/%v", id, err, err2)
	}
	mr.shadow[id] = tu
	mr.override(id, old)
}

func (mr *mirror) delete(id int) {
	mr.t.Helper()
	old, err := mr.disk.Delete(id)
	_, err2 := mr.mem.Delete(id)
	if err != nil || err2 != nil {
		mr.t.Fatalf("delete %d: %v/%v", id, err, err2)
	}
	mr.shadow[id] = nil
	mr.override(id, old)
}

func (mr *mirror) live(rng *rand.Rand) int {
	for {
		if id := rng.Intn(len(mr.shadow)); mr.shadow[id] != nil && id != mr.keep {
			return id
		}
	}
}

// draw derives a payload from a live tuple: most coordinates are kept
// bit for bit — so the new posting ties with the source's in that list,
// on either side of it by id — some are redrawn, and a few dimensions
// are added.
func (mr *mirror) draw(rng *rand.Rand, m int) vec.Sparse {
	vals := map[int]float64{}
	for _, e := range mr.shadow[mr.live(rng)] {
		switch r := rng.Float64(); {
		case r < 0.6:
			vals[e.Dim] = e.Val
		case r < 0.8:
			vals[e.Dim] = 0.01 + 0.99*rng.Float64()
		}
	}
	for extra := rng.Intn(3); extra > 0 || len(vals) == 0; extra-- {
		vals[rng.Intn(m)] = 0.01 + 0.99*rng.Float64()
	}
	entries := make([]vec.Entry, 0, len(vals))
	for d, v := range vals {
		entries = append(entries, vec.Entry{Dim: d, Val: v})
	}
	tu, err := vec.NewSparse(entries)
	if err != nil {
		mr.t.Fatal(err)
	}
	return tu
}

// TestSaveIndexIsSaveDataset is the checkpoint's contract: merging a
// frozen overlay with its base files (SaveIndex) writes, byte for byte,
// the files the bulk loader writes from the decoded live view
// (SaveDataset(Materialize())) — over a disk base, where untouched lists
// and records are copied as encoded, and over a memory base, through the
// cursors. Each generation is built on the one before, so tombstones
// (empty records) are carried from file to file.
func TestSaveIndexIsSaveDataset(t *testing.T) {
	wsj := dataset.GenerateWSJ(dataset.WSJConfig{Docs: 500, Vocab: 400, MeanTerms: 12, Seed: 17})
	st := dataset.GenerateST(dataset.STConfig{N: 700, M: 6, Seed: 17})
	for _, d := range []*dataset.Dataset{wsj, st} {
		t.Run(d.Name, func(t *testing.T) {
			// Three dimensions past the generator's: lone holds one posting,
			// which the first generation's delete takes away; fresh holds
			// none until the second generation's insert brings one; quiet
			// holds one that no write comes near, so that the dense
			// dataset too has a list to copy in every generation.
			lone, fresh, quiet, m := d.M, d.M+1, d.M+2, d.M+3
			base := append(cloneAll(d.Tuples),
				vec.MustSparse(vec.Entry{Dim: 0, Val: 0.5}, vec.Entry{Dim: lone, Val: 0.75}),
				vec.MustSparse(vec.Entry{Dim: quiet, Val: 0.5}))
			loneID, quietID := len(base)-2, len(base)-1

			dir := t.TempDir()
			tp, lp := filepath.Join(dir, "tuples.g0.dat"), filepath.Join(dir, "lists.g0.dat")
			if err := lists.SaveDataset(tp, lp, base, m); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1701))
			for gen := 1; gen <= 3; gen++ {
				disk, err := lists.OpenDiskIndex(tp, lp)
				if err != nil {
					t.Fatal(err)
				}
				mr := &mirror{t: t, disk: lists.NewOverlay(disk), baseN: disk.NumTuples(),
					keep: quietID, over: map[int]bool{}, lost: map[int]bool{}}
				mr.shadow = mr.disk.Materialize()
				mr.mem = lists.NewOverlay(lists.NewMemIndex(cloneAll(mr.shadow), m))

				// An empty delta: the generation is a copy of its base.
				etp, elp := checkSaves(t, dir, "empty", mr, m)
				sameFile(t, etp, tp)
				sameFile(t, elp, lp)

				if gen == 1 {
					mr.delete(loneID)
				}
				for op := 0; op < 120; op++ {
					switch r := rng.Float64(); {
					case r < 0.3:
						mr.insert(mr.draw(rng, d.M))
					case r < 0.8:
						mr.update(mr.live(rng), mr.draw(rng, d.M))
					default:
						mr.delete(mr.live(rng))
					}
				}
				// The directed cases: an insert deleted again, an insert
				// updated, ties against one base tuple from a smaller and
				// a larger id, and the two extra dimensions.
				mr.delete(mr.insert(mr.draw(rng, d.M)))
				mr.update(mr.insert(mr.draw(rng, d.M)), mr.draw(rng, d.M))
				lo, mid, hi := -1, -1, -1
				for id := 0; id < mr.baseN; id++ {
					if mr.shadow[id] == nil || mr.over[id] || id == mr.keep {
						continue
					}
					switch {
					case lo < 0:
						lo = id
					case mid < 0:
						mid = id
					}
					hi = id
				}
				if hi <= mid {
					t.Fatal("no three untouched base tuples left")
				}
				mr.update(lo, mr.shadow[mid])
				mr.update(hi, mr.shadow[mid])
				if gen == 1 && (mr.disk.ListLen(lone) != 0 || mr.disk.ListLen(fresh) != 0) {
					t.Fatal("the extra dimensions are not empty")
				}
				if gen == 2 {
					mr.insert(vec.MustSparse(vec.Entry{Dim: fresh, Val: 0.25}))
				}

				ntp, nlp := checkSaves(t, dir, "gen", mr, m)
				disk.Close()
				tp, lp = filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")
				if err := os.Rename(ntp, tp); err != nil {
					t.Fatal(err)
				}
				if err := os.Rename(nlp, lp); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// checkSaves writes the mirror's view three ways — the reference, the
// merge over the disk base and the merge over the memory base — demands
// equal bytes, checks the copy counts against the mirror's bookkeeping,
// and returns the disk merge's files.
func checkSaves(t *testing.T, dir, tag string, mr *mirror, m int) (tuplePath, listPath string) {
	t.Helper()
	path := func(kind, how string) string { return filepath.Join(dir, kind+"."+tag+"."+how+".dat") }
	if err := lists.SaveDataset(path("tuples", "ref"), path("lists", "ref"), mr.disk.Materialize(), m); err != nil {
		t.Fatal(err)
	}
	seq0, rand0, bytes0 := mr.disk.Stats().Snapshot()
	got, err := lists.SaveIndex(path("tuples", "disk"), path("lists", "disk"), mr.disk.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	if seq, rnd, by := mr.disk.Stats().Snapshot(); seq != seq0 || rnd != rand0 || by != bytes0 {
		t.Fatalf("%s: SaveIndex charged the overlay's meter: seq %d→%d rand %d→%d", tag, seq0, seq, rand0, rnd)
	}
	memGot, err := lists.SaveIndex(path("tuples", "mem"), path("lists", "mem"), mr.mem.Freeze())
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"tuples", "lists"} {
		sameFile(t, path(kind, "disk"), path(kind, "ref"))
		sameFile(t, path(kind, "mem"), path(kind, "ref"))
	}

	// What must have been copied as encoded: every base record no write
	// overrode, every populated list no write touched. A disk base that
	// fell back to decoding would pass the byte check and fail here.
	var want lists.SaveIndexStats
	want.RecordsCopied = mr.baseN - len(mr.over)
	want.RecordsEncoded = len(mr.shadow) - want.RecordsCopied
	merged := mr.merged()
	for d := 0; d < m; d++ {
		switch {
		case mr.disk.ListLen(d) == 0:
		case merged[d]:
			want.ListsMerged++
		default:
			want.ListsCopied++
		}
	}
	if got != want {
		t.Fatalf("%s: disk base copied/encoded %+v, want %+v", tag, got, want)
	}
	if tag != "empty" && (want.ListsCopied == 0 || want.ListsMerged == 0 || want.RecordsCopied == 0 || want.RecordsEncoded == 0) {
		t.Fatalf("%s: the case does not exercise both paths: %+v", tag, want)
	}
	wantMem := lists.SaveIndexStats{ListsMerged: want.ListsCopied + want.ListsMerged, RecordsEncoded: len(mr.shadow)}
	if memGot != wantMem {
		t.Fatalf("%s: memory base copied/encoded %+v, want %+v", tag, memGot, wantMem)
	}
	return path("tuples", "disk"), path("lists", "disk")
}

func sameFile(t *testing.T, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		at := 0
		for at < len(g) && at < len(w) && g[at] == w[at] {
			at++
		}
		t.Fatalf("%s (%d bytes) differs from %s (%d bytes) at offset %d", filepath.Base(got), len(g), filepath.Base(want), len(w), at)
	}
}

func cloneAll(ts []vec.Sparse) []vec.Sparse {
	out := make([]vec.Sparse, len(ts))
	for i, t := range ts {
		if t != nil {
			out[i] = t.Clone()
		}
	}
	return out
}
