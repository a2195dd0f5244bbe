// Package walltime defines an analyzer that forbids wall-clock reads and
// the global math/rand generator in simulation-reachable code. A trial's
// output must be a pure function of its seed: all time comes from
// sim.Now() and all randomness from the seeded per-trial sources
// (sim.Rand and the per-node mobility/traffic streams), never from the
// host clock or process-global state that other goroutines share.
package walltime

import (
	"go/ast"
	"go/types"

	"slr/internal/analysis/slrlint"
)

const doc = `forbid wall-clock and global math/rand in simulation-reachable code

Flags references (calls or function values) to time.Now, time.Since and
the rest of the host-clock surface, and to math/rand's package-level
generator functions. rand.New/NewSource and methods on a *rand.Rand are
the sanctioned seeded path and stay legal, as do time's types and
constants (sim.Time is a time.Duration).

CLI code legitimately lives on the wall clock; allowPkgs lists those
package patterns (the command mains and the examples). Anything else —
e.g. a progress meter in otherwise sim-adjacent code — carries
//slrlint:allow walltime <reason>.`

// allowPkgs are the package patterns allowed to touch the wall clock.
var allowPkgs = slrlint.List{"slr/cmd/...", "slr/examples/..."}

// Analyzer is the walltime analyzer.
var Analyzer = &slrlint.Analyzer{Name: "walltime", Doc: doc, Run: run}

// bannedTime is the host-clock surface of package time. Types, constants
// and pure converters (Duration, ParseDuration, Unix…) stay legal.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// bannedRand is the process-global generator surface of math/rand and
// math/rand/v2. Constructors (New, NewSource, NewZipf, NewPCG,
// NewChaCha8) build seeded per-trial sources and stay legal.
var bannedRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint": true, "Uint32": true,
	"Uint64": true, "Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true, "Perm": true,
	"Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 spellings.
	"N": true, "IntN": true, "Int32N": true, "Int64N": true,
	"UintN": true, "Uint32N": true, "Uint64N": true,
}

func run(pass *slrlint.Pass) {
	if allowPkgs.MatchPath(pass.Pkg.Path()) {
		return
	}
	sup := slrlint.NewSuppressor(pass)

	pass.Walk(func(n ast.Node, _ []ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return
		}
		name := fn.Name()
		switch fn.Pkg().Path() {
		case "time":
			if bannedTime[name] {
				sup.Reportf(sel.Pos(), "time.%s reads the wall clock; sim code derives time from sim.Now() (allow with //slrlint:allow walltime <reason> or the -walltime.allow package list)", name)
			}
		case "math/rand", "math/rand/v2":
			if bannedRand[name] {
				sup.Reportf(sel.Pos(), "rand.%s uses the global math/rand generator; sim code draws from its seeded per-trial source (sim.Rand or a rand.New(rand.NewSource(seed)) stream)", name)
			}
		}
	})
}
