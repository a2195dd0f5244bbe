// Package timeconv defines an analyzer that forbids converting a
// floating-point value to sim.Time (or time.Duration, which sim.Time is)
// outside internal/sim. Go's conversion of a float past the integer's
// range is implementation-defined, and on amd64 it wraps: a pause of
// 1e12 s became a negative instant the kernel panicked on, and a protocol
// timer of 1e12 s was refused as a negative span instead of the value
// given. internal/sim owns the two conversions that cannot wrap:
// sim.Seconds, checked, for inputs given in seconds, and sim.Span,
// saturating at sim.MaxSpan, for random draws and derived spans.
package timeconv

import (
	"go/ast"
	"go/types"

	"slr/internal/analysis/slrlint"
)

const doc = `forbid float-to-sim.Time conversions outside internal/sim

Flags T(x) where T is sim.Time or time.Duration and x is a floating-point
value that is not a constant (the compiler already refuses a constant that
is not a whole number in range). Inputs in seconds go through sim.Seconds,
which refuses NaN, ±Inf, negative values and values past sim.MaxSpan;
draws and derived spans go through sim.Span, which keeps the caller's float
expression and saturates at sim.MaxSpan.

internal/sim, which defines the two, is exempt, as are the command mains
and the examples (walltime's allowPkgs): they sit outside the simulator.
Anything else carries //slrlint:allow timeconv <reason>.`

// allowPkgs are the package patterns allowed to convert floats to Time.
var allowPkgs = slrlint.List{"slr/internal/sim", "slr/cmd/...", "slr/examples/..."}

// Analyzer is the timeconv analyzer.
var Analyzer = &slrlint.Analyzer{Name: "timeconv", Doc: doc, Run: run}

func run(pass *slrlint.Pass) {
	if allowPkgs.MatchPath(pass.Pkg.Path()) {
		return
	}
	sup := slrlint.NewSuppressor(pass)
	pass.Walk(func(n ast.Node, _ []ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 1 {
			return
		}
		to := pass.TypesInfo.Types[call.Fun]
		if !to.IsType() || !slrlint.MatchNamed(to.Type, "time.Duration") && !slrlint.MatchNamed(to.Type, "slr/internal/sim.Time") {
			return
		}
		x := pass.TypesInfo.Types[call.Args[0]]
		if b, ok := x.Type.Underlying().(*types.Basic); !ok || b.Info()&types.IsFloat == 0 || x.Value != nil {
			return
		}
		sup.Reportf(call.Pos(), "%s of a float wraps past its range; convert seconds inputs with sim.Seconds and draws with sim.Span", types.ExprString(call.Fun))
	})
}
