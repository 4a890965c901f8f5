package engine

import (
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/lists"
	"repro/internal/vec"
	"repro/internal/wal"
)

func fenceTestEngine(t *testing.T) (*Engine, string) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	dir := t.TempDir()
	tuples := make([]vec.Sparse, 20)
	for i := range tuples {
		tuples[i] = vec.MustSparse(vec.Entry{Dim: 0, Val: rng.Float64()}, vec.Entry{Dim: 1, Val: rng.Float64()})
	}
	if err := lists.SaveDataset(filepath.Join(dir, "tuples.dat"), filepath.Join(dir, "lists.dat"), tuples, 2); err != nil {
		t.Fatal(err)
	}
	eng, err := OpenDir(dir, 0, Config{WAL: true, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	return eng, dir
}

func fenceTestOp(rng *rand.Rand) []Op {
	return []Op{{Kind: OpInsert, Tuple: vec.MustSparse(
		vec.Entry{Dim: 0, Val: rng.Float64()}, vec.Entry{Dim: 1, Val: rng.Float64()})}}
}

// TestFenceBlocksApply: a fenced engine refuses local writes with
// ErrFenced but still accepts replicated frames (the rejoin path), and
// the fence lifts when the epoch catches up.
func TestFenceBlocksApply(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	eng, _ := fenceTestEngine(t)
	defer eng.Close()

	if _, err := eng.Apply(fenceTestOp(rng)); err != nil {
		t.Fatal(err)
	}
	eng.Fence(3)
	if !eng.Fenced() {
		t.Fatal("Fence(3) did not fence an epoch-0 engine")
	}
	if _, err := eng.Apply(fenceTestOp(rng)); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced Apply returned %v, want ErrFenced", err)
	}
	// Fencing is monotone: a lower epoch cannot unfence.
	eng.Fence(1)
	if eng.FencedBy() != 3 {
		t.Fatalf("Fence(1) lowered the fence to %d", eng.FencedBy())
	}
	// Advancing past the fencing epoch lifts the fence (the node was
	// re-elected or the operator forced it).
	if err := eng.AdvanceEpoch(4); err != nil {
		t.Fatal(err)
	}
	if eng.Fenced() {
		t.Fatal("epoch 4 > fence 3, but still fenced")
	}
	if _, err := eng.Apply(fenceTestOp(rng)); err != nil {
		t.Fatalf("unfenced Apply failed: %v", err)
	}
}

// TestAdvanceEpochPersists: the fencing epoch and its timeline survive
// close/reopen via the MANIFEST — a restarted deposed primary must not
// boot believing it is current.
func TestAdvanceEpochPersists(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	eng, dir := fenceTestEngine(t)
	if _, err := eng.Apply(fenceTestOp(rng)); err != nil {
		t.Fatal(err)
	}
	seqAtPromotion := eng.LastSeq()
	if err := eng.AdvanceEpoch(2); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(fenceTestOp(rng)); err != nil {
		t.Fatal(err)
	}
	// Refusing non-monotone advances.
	if err := eng.AdvanceEpoch(2); err == nil {
		t.Fatal("AdvanceEpoch(2) twice succeeded")
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenDir(dir, 0, Config{WAL: true, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Epoch(); got != 2 {
		t.Fatalf("reopened epoch %d, want 2", got)
	}
	// The timeline maps pre-promotion sequences to epoch 0 and
	// post-promotion ones to epoch 2.
	if got := reopened.EpochAt(seqAtPromotion); got != 0 {
		t.Fatalf("EpochAt(%d) = %d, want 0", seqAtPromotion, got)
	}
	if got := reopened.EpochAt(seqAtPromotion + 1); got != 2 {
		t.Fatalf("EpochAt(%d) = %d, want 2", seqAtPromotion+1, got)
	}
}

// TestAdoptEpoch: a follower adopts the primary's timeline wholesale
// and refuses to adopt backwards.
func TestAdoptEpoch(t *testing.T) {
	eng, _ := fenceTestEngine(t)
	defer eng.Close()

	timeline := []wal.EpochStart{{Epoch: 2, StartSeq: 5}, {Epoch: 4, StartSeq: 9}}
	if err := eng.AdoptEpoch(4, timeline); err != nil {
		t.Fatal(err)
	}
	if eng.Epoch() != 4 {
		t.Fatalf("epoch %d after adopt, want 4", eng.Epoch())
	}
	if got := eng.EpochAt(7); got != 2 {
		t.Fatalf("EpochAt(7) = %d, want 2", got)
	}
	if err := eng.AdoptEpoch(3, nil); err == nil {
		t.Fatal("adopted a lower epoch")
	}
	// Re-adopting the identical state is a no-op, not an error — every
	// reconnect handshake does it.
	if err := eng.AdoptEpoch(4, timeline); err != nil {
		t.Fatalf("idempotent adopt failed: %v", err)
	}
}
