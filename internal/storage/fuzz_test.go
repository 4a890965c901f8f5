package storage

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vec"
)

// fuzzSeeds are the openers' seed files: a valid file, the same file cut
// short (its trailer gone), and a 32-byte header claiming 2³²−1 entries.
func fuzzSeeds(f *testing.F, magic [8]byte, write func(path string) error) {
	path := filepath.Join(f.TempDir(), "seed.dat")
	if err := write(path); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-trailerSize-5])
	f.Add(hugeCountFile(magic, math.MaxUint32))
}

// fuzzFile writes one input where an opener can read it.
func fuzzFile(t *testing.T, data []byte) string {
	path := filepath.Join(t.TempDir(), "in.dat")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// FuzzOpenTupleFile: whatever a tuple file holds, OpenTupleFile fails or
// returns a file on which every GetWith and ProjectWith returns a value
// or an error and Prefetch returns; nothing panics. Besides the common
// seeds it starts from a file of dense records only and one that mixes
// both encodings.
func FuzzOpenTupleFile(f *testing.F) {
	fuzzSeeds(f, tupleMagic, func(path string) error {
		return WriteTupleFile(path, randTuples(rand.New(rand.NewSource(7)), 6, 5), 5)
	})
	full := vec.Sparse{{Dim: 0, Val: 0.5}, {Dim: 1, Val: 1}, {Dim: 2, Val: 0.25}, {Dim: 3, Val: 0.75}}
	for _, tuples := range [][]vec.Sparse{
		{full, full[1:], full},                     // dense: nnz 4 and 3 of m = 4
		{full, nil, full[:1], full[1:], full[2:3]}, // mixed
	} {
		path := filepath.Join(f.TempDir(), "seed.dat")
		if err := WriteTupleFile(path, tuples, 4); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tf, err := OpenTupleFile(fuzzFile(t, data), &IOStats{}, 0)
		if err != nil {
			return
		}
		defer tf.Close()
		dims, dst := []int{0, 2, 3}, make([]float64, 3)
		ids := make([]int32, 0, tf.NumTuples()+2)
		for id := -1; id <= tf.NumTuples(); id++ {
			_, _ = tf.GetWith(id, nil)
			_ = tf.ProjectWith(id, dims, dst, nil)
			ids = append(ids, int32(id))
		}
		tf.Prefetch(ids)
	})
}

// FuzzOpenListFile: whatever a list file holds, OpenListFile fails or
// returns a file whose every listed dimension's cursor reads postings
// until it reports the end or an error; nothing panics.
func FuzzOpenListFile(f *testing.F) {
	fuzzSeeds(f, listMagic, func(path string) error {
		return writeListMap(path, map[int][]Posting{0: {{ID: 3, Val: 0.75}, {ID: 1, Val: 0.5}}, 2: {{ID: 2, Val: 0.25}}}, 4)
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		lf, err := OpenListFile(fuzzFile(t, data), &IOStats{}, 0)
		if err != nil {
			return
		}
		defer lf.Close()
		ahead := make([]int32, 4)
		for dim := range lf.dir {
			c := lf.CursorWith(dim, nil)
			for {
				c.Ahead(1, ahead)
				if _, ok := c.Next(); !ok {
					break
				}
			}
			_ = c.Err()
			c.Release()
		}
	})
}
