package pooledescape_test

import (
	"testing"

	"slr/internal/analysis/atest"
	"slr/internal/analysis/pooledescape"
)

func TestPooledEscape(t *testing.T) {
	// sim exercises the defining-package exemption: the pool owner's
	// freelist stores must produce zero diagnostics.
	atest.Run(t, "../testdata", pooledescape.Analyzer, "pooledescape", "sim")
}
