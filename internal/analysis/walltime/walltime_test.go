package walltime_test

import (
	"testing"

	"slr/internal/analysis/atest"
	"slr/internal/analysis/walltime"
)

func TestWalltime(t *testing.T) {
	// cmd/progress exercises the package allowlist: wall-clock reads
	// there must produce zero diagnostics. sim, the stream constructor's
	// package, may call rand.NewSource.
	atest.Run(t, "../testdata", walltime.Analyzer, "walltime", "cmd/progress", "sim")
}
