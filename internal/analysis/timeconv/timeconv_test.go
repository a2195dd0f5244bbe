package timeconv_test

import (
	"testing"

	"slr/internal/analysis/atest"
	"slr/internal/analysis/timeconv"
)

func TestTimeconv(t *testing.T) {
	// sim, which defines the converters, and cmd/progress, a command,
	// convert floats freely: no diagnostics there.
	atest.Run(t, "../testdata", timeconv.Analyzer, "timeconv", "sim", "cmd/progress")
}
