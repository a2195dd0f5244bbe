// Package analysis is the home of slrlint, the repo's determinism
// linter: five analyzers that machine-enforce the invariants every PR
// since PR 1 has re-proven by hand. They are written against the small
// Analyzer/Pass types of internal/analysis/slrlint — standard library
// only (go/ast, go/types, go/importer), no flags.
//
// The repo's contract is that a trial's JSONL output is a byte-identical
// function of its seed — across worker counts, shards and resumed runs.
// Each analyzer encodes one way Go code has broken (or could break) that
// contract:
//
//   - mapiter: map-iteration order escaping into output or scheduling
//     (the PR 1 OLSR/SRP bug class — BFS seeded in range-over-map order).
//   - walltime: wall-clock reads or global math/rand in sim-reachable
//     code, and math/rand.NewSource outside internal/sim; all time must
//     come from sim.Now(), all randomness from seeded sim.NewRand
//     streams.
//   - floatfmt: shortest-form float formatting outside runner.Key, the
//     PR 6 canonical codec that keeps identity keys injective and equal
//     to the JSON encoder's rendering.
//   - pooledescape: pooled values (*sim.Event, control envelopes)
//     retained past the callback that received them — the
//     use-after-recycle hazard of the PR 1/PR 3 pooling.
//   - timeconv: a float converted to sim.Time or time.Duration outside
//     internal/sim, where sim.Seconds (checked, for inputs in seconds)
//     and sim.Span (saturating at sim.MaxSpan, for draws) live — the
//     wrapped-span bug class: a 1e12 s period became a negative instant.
//
// Deliberate exceptions carry //slrlint:allow <analyzer> <reason> on or
// directly above the flagged line; the reason is mandatory. cmd/slrlint
// hands the analyzers to slrlint.Main, which speaks cmd/go's vet-tool
// protocol, so `go vet -vettool` (make lint) drives them over the whole
// repo one package at a time. atest runs one analyzer over the fixtures
// under testdata/ and checks their "// want" comments; those fixtures are
// deliberately pathological and excluded from the repo-wide gates (the go
// tool skips testdata directories by itself, and make fmt excludes them
// explicitly).
package analysis
