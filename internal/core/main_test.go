package core

import (
	"os"
	"testing"

	"repro/internal/topk"
)

// TestMain runs the whole package with scratch poisoning on (see
// topk.PoisonScratch): scan memory handed back to the arena is
// overwritten with NaN/-1, so any answer that still aliases it fails the
// bit-identity suites instead of passing by luck.
func TestMain(m *testing.M) {
	topk.PoisonScratch(true)
	os.Exit(m.Run())
}
