// Package walltime defines an analyzer that forbids wall-clock reads and
// the global math/rand generator in simulation-reachable code. A trial's
// output must be a pure function of its seed: all time comes from
// sim.Now() and all randomness from the seeded per-trial streams
// (sim.Rand and the per-node mobility/traffic streams, all built by
// sim.NewRand), never from the host clock or process-global state that
// other goroutines share.
package walltime

import (
	"go/ast"
	"go/types"

	"slr/internal/analysis/slrlint"
)

const doc = `forbid wall-clock and global math/rand in simulation-reachable code

Flags references (calls or function values) to time.Now, time.Since and
the rest of the host-clock surface, and to math/rand's package-level
generator functions. Methods on a *rand.Rand from sim.NewRand are the
sanctioned seeded path and stay legal, as do time's types and constants
(sim.Time is a time.Duration). math/rand.NewSource is reported outside
internal/sim: sim.NewRand draws the same values per seed but seeds on
first draw, where NewSource fills a 4.9 KB register up front.

CLI code legitimately lives on the wall clock; allowPkgs lists those
package patterns (the command mains and the examples). Anything else —
e.g. a progress meter in otherwise sim-adjacent code — carries
//slrlint:allow walltime <reason>.`

// allowPkgs are the package patterns allowed to touch the wall clock.
var allowPkgs = slrlint.List{"slr/cmd/...", "slr/examples/..."}

// streamPkgs may call math/rand.NewSource: the stream constructor's own
// package.
var streamPkgs = slrlint.List{"slr/internal/sim"}

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
// math/rand/v2. Constructors (New, NewZipf, NewPCG, NewChaCha8) build
// seeded sources and stay legal; NewSource is checked on its own.
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
	streamPkg := streamPkgs.MatchPath(pass.Pkg.Path())

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
				sup.Reportf(sel.Pos(), "rand.%s uses the global math/rand generator; sim code draws from its seeded per-trial streams (sim.Rand or a sim.NewRand(seed) stream)", name)
			}
			if name == "NewSource" && !streamPkg {
				sup.Reportf(sel.Pos(), "rand.NewSource seeds its 4.9 KB state up front; sim code builds streams with sim.NewRand(seed), which draws the same values and seeds on first draw")
			}
		}
	})
}
