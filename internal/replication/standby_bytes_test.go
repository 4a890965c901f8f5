package replication

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/wal"
)

// logFrames reads every frame of dir's wal.log as it lies on disk.
func logFrames(t testing.TB, dir string) [][]byte {
	t.Helper()
	var frames [][]byte
	if _, err := wal.ReplayFrames(filepath.Join(dir, wal.LogName), 0, func(_ uint64, frame []byte) error {
		frames = append(frames, frame)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return frames
}

// assertSameLog holds the standby's log to the primary's, frame for
// frame and byte for byte.
func assertSameLog(t testing.TB, what, pdir, fdir string) {
	t.Helper()
	pf, ff := logFrames(t, pdir), logFrames(t, fdir)
	if len(pf) == 0 {
		t.Fatalf("%s: the primary's log is empty, nothing compared", what)
	}
	if len(pf) != len(ff) {
		t.Fatalf("%s: primary logs %d frames, standby %d", what, len(pf), len(ff))
	}
	for i := range pf {
		if !bytes.Equal(pf[i], ff[i]) {
			t.Fatalf("%s: frame %d differs:\nprimary %x\nstandby %x", what, i, pf[i], ff[i])
		}
	}
}

// TestCorruptGenerationNeverShipped: a generation file that rotted on
// the primary's disk — one data byte flipped, its trailer intact — is
// refused by a fresh follower's trailer check, so the follower stays
// without an engine and says why. Once the byte is restored the same
// follower bootstraps.
func TestCorruptGenerationNeverShipped(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pdir, fdir := t.TempDir(), t.TempDir()
	saveDataset(t, pdir, genTuples(rng, 40))
	p := startPrimary(t, pdir, AckAsync, 0)
	defer p.close(t)

	path := filepath.Join(pdir, wal.DefaultManifest().Tuples)
	file, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	st, err := file.Stat()
	if err != nil {
		t.Fatal(err)
	}
	off := st.Size() / 2 // well inside the records, far from the 16-byte trailer
	orig := make([]byte, 1)
	if _, err := file.ReadAt(orig, off); err != nil {
		t.Fatal(err)
	}
	if _, err := file.WriteAt([]byte{orig[0] ^ 0x40}, off); err != nil {
		t.Fatal(err)
	}

	fh := startFollower(t, fdir, p.addr)
	defer fh.stop(t)
	waitFor(t, "the snapshot's outcome", func() bool { return fh.f.Stats().LastError != "" || fh.f.Engine() != nil })
	if fh.f.Engine() != nil {
		t.Fatal("follower bootstrapped from a corrupt generation file")
	}
	if msg := fh.f.Stats().LastError; !strings.Contains(msg, "crc") {
		t.Fatalf("last error %q does not name the checksum", msg)
	}

	if _, err := file.WriteAt(orig, off); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "bootstrap from the restored file", caughtUp(p, fh))
	assertEnginesEqual(t, p.eng, fh.f.Engine())
}
