package storage

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/vec"
)

func writeBoth(t *testing.T) (tuplePath, listPath string) {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	tuples := randTuples(rng, 120, 8)
	dir := t.TempDir()
	tuplePath = filepath.Join(dir, "tuples.dat")
	listPath = filepath.Join(dir, "lists.dat")
	if err := WriteTupleFile(tuplePath, tuples, 8); err != nil {
		t.Fatal(err)
	}
	lists := map[int][]Posting{}
	for id, tp := range tuples {
		for _, e := range tp {
			lists[e.Dim] = append(lists[e.Dim], Posting{ID: id, Val: e.Val})
		}
	}
	if err := writeListMap(listPath, lists, 8); err != nil {
		t.Fatal(err)
	}
	return tuplePath, listPath
}

func TestVerifyChecksumClean(t *testing.T) {
	tp, lp := writeBoth(t)
	if err := VerifyChecksum(tp); err != nil {
		t.Errorf("clean tuple file: %v", err)
	}
	if err := VerifyChecksum(lp); err != nil {
		t.Errorf("clean list file: %v", err)
	}
}

// flipByte corrupts one byte at offset off.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyChecksumDetectsCorruption(t *testing.T) {
	tp, lp := writeBoth(t)
	for _, path := range []string{tp, lp} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt a byte in the middle of the payload.
		flipByte(t, path, st.Size()/2)
		if err := VerifyChecksum(path); err == nil {
			t.Errorf("%s: corruption not detected", filepath.Base(path))
		}
	}
}

func TestOpenRejectsTruncatedFiles(t *testing.T) {
	tp, lp := writeBoth(t)
	for _, c := range []struct {
		path string
		open func(string) error
	}{
		{tp, func(p string) error { _, err := OpenTupleFile(p, &IOStats{}, 0); return err }},
		{lp, func(p string) error { _, err := OpenListFile(p, &IOStats{}, 0); return err }},
	} {
		st, err := os.Stat(c.path)
		if err != nil {
			t.Fatal(err)
		}
		// Chop off the trailer plus a bit of data.
		if err := os.Truncate(c.path, st.Size()-trailerSize-5); err != nil {
			t.Fatal(err)
		}
		if err := c.open(c.path); err == nil {
			t.Errorf("%s: truncated file opened successfully", filepath.Base(c.path))
		}
	}
}

func TestOpenRejectsTinyFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tiny.dat")
	if err := os.WriteFile(path, []byte("IRTUP001"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTupleFile(path, &IOStats{}, 0); err == nil {
		t.Error("8-byte file opened as tuple file")
	}
	if err := VerifyChecksum(path); err == nil {
		t.Error("8-byte file passed checksum verification")
	}
}

// hugeCountFile is the smallest file an opener gets past its trailer
// check with: magic, a count of entries, m = 4 and the 16-byte trailer,
// 32 bytes in all — no room for a single offset or directory entry.
func hugeCountFile(magic [8]byte, count uint32) []byte {
	b := binary.LittleEndian.AppendUint32(append([]byte{}, magic[:]...), count)
	b = binary.LittleEndian.AppendUint32(b, 4)
	return append(append(b, crcMagic[:]...), make([]byte, 8)...)
}

// TestOpenRejectsHugeCounts: a header count the file has no room for
// fails the open before anything is sized by it — a 32-byte file that
// claimed 2³²−1 tuples or lists used to end the process out of memory.
// A tuple file of the previous format version is refused by the error
// that names its version.
func TestOpenRejectsHugeCounts(t *testing.T) {
	dir := t.TempDir()
	openTuples := func(p string) error { _, err := OpenTupleFile(p, &IOStats{}, 0); return err }
	openLists := func(p string) error { _, err := OpenListFile(p, &IOStats{}, 0); return err }
	for _, c := range []struct {
		name  string
		magic [8]byte
		count uint32
		open  func(string) error
		want  string // in the error, when set
	}{
		{"tuples-max", tupleMagic, math.MaxUint32, openTuples, ""},
		{"tuples-one", tupleMagic, 1, openTuples, ""},
		{"tuples-v1", [8]byte{'I', 'R', 'T', 'U', 'P', '0', '0', '1'}, 1, openTuples, "format IRTUP001"},
		{"lists-max", listMagic, math.MaxUint32, openLists, ""},
		{"lists-one", listMagic, 1, openLists, ""},
	} {
		path := filepath.Join(dir, c.name+".dat")
		if err := os.WriteFile(path, hugeCountFile(c.magic, c.count), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.open(path)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a 32-byte file claiming %d entries opened", c.name, c.count)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want it to say %q", c.name, err, c.want)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("%s: failing the open allocated %d B", c.name, got)
		}
	}
}

func TestTrailerSurvivesRoundTrip(t *testing.T) {
	// The trailer must not be readable as payload: the last tuple's
	// record must end exactly at the trailer.
	dir := t.TempDir()
	path := filepath.Join(dir, "one.dat")
	tuples := []vec.Sparse{vec.MustSparse(vec.Entry{Dim: 3, Val: 0.25})}
	if err := WriteTupleFile(path, tuples, 4); err != nil {
		t.Fatal(err)
	}
	tf, err := OpenTupleFile(path, &IOStats{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	got, err := tf.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (vec.Entry{Dim: 3, Val: 0.25}) {
		t.Fatalf("tuple = %v", got)
	}
}
