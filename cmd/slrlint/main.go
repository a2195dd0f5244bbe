// Command slrlint is the repo's determinism linter: the five analyzers of
// internal/analysis (mapiter, walltime, floatfmt, pooledescape,
// timeconv), each machine-enforcing an invariant the
// byte-identical-per-seed contract or a trial's clock depends on, behind
// slrlint.Main — a standard-library-only driver for the go tool's vet
// protocol. It has no package loader and no flags of
// its own; `go vet` hands it one type-checkable package at a time:
//
//	go build -o bin/slrlint ./cmd/slrlint
//	go vet -vettool=$(pwd)/bin/slrlint ./...
//
// (make lint does exactly this.) Suppressions are source comments, not
// linter config: //slrlint:allow <analyzer> <reason> on (or directly
// above) the flagged line, with a mandatory reason. See the README's
// determinism-discipline section for the invariants and their history.
package main

import (
	"slr/internal/analysis/floatfmt"
	"slr/internal/analysis/mapiter"
	"slr/internal/analysis/pooledescape"
	"slr/internal/analysis/slrlint"
	"slr/internal/analysis/timeconv"
	"slr/internal/analysis/walltime"
)

func main() {
	slrlint.Main(
		mapiter.Analyzer,
		walltime.Analyzer,
		floatfmt.Analyzer,
		pooledescape.Analyzer,
		timeconv.Analyzer,
	)
}
