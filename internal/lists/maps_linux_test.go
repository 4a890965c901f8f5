package lists

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fixture"
)

// TestListFileIsNotMapped: a DiskIndex maps its tuple file and never its
// list file, not even after every list
// has been scanned to the end — what the kernel's /proc/self/maps says
// of the process, not what the storage package believes of itself.
func TestListFileIsNotMapped(t *testing.T) {
	cs := fixture.RandCase(rand.New(rand.NewSource(43)), 2000, 12, 4, 5)
	dir, err := filepath.EvalSymlinks(t.TempDir()) // maps names the resolved path
	if err != nil {
		t.Fatal(err)
	}
	tp, lp := filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat")
	if err := SaveDataset(tp, lp, cs.Tuples, cs.M); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenDiskIndex(tp, lp)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for d := 0; d < cs.M; d++ {
		c := disk.Cursor(d)
		for _, ok := c.Next(); ok; _, ok = c.Next() {
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		c.Release()
	}

	raw, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	var sawTuples bool
	for _, line := range strings.Split(string(raw), "\n") {
		switch {
		case strings.HasSuffix(line, " "+lp):
			t.Fatalf("the list file is mapped: %s", line)
		case strings.HasSuffix(line, " "+tp):
			sawTuples = true
		}
	}
	if !sawTuples {
		t.Fatal("/proc/self/maps does not show the tuple file mapped")
	}
}
