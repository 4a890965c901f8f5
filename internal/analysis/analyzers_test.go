package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// Each analyzer is exercised against a fixture tree under testdata/src
// holding positive, negative and suppression cases; the harness fails
// on any diagnostic without a // want comment and vice versa, so these
// tests prove each check actually fires (and stays silent) where the
// fixture says.

func TestLockSafe(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.LockSafe, "locksafe/internal/engine")
}

func TestMetered(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.Metered,
		"metered/internal/engine", "metered/internal/core", "metered/internal/shard")
}

func TestErrMap(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.ErrMap,
		"errmap/internal/wal", "errmap/internal/server", "errmap/internal/storage", "errmap/internal/engine")
}

func TestDetCore(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.DetCore,
		"detcore/internal/core", "detcore/internal/vec", "detcore/internal/util")
}

func TestObsReg(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.ObsReg, "obsreg/internal/app")
}
