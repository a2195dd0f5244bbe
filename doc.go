// Package slr reproduces "Loop-Free Routing Using a Dense Label Set in
// Wireless Networks" (Mosko and Garcia-Luna-Aceves, ICDCS 2004): the Split
// Label Routing framework, the SRP protocol, the four baseline protocols of
// the paper's evaluation (AODV, DSR, LDR, OLSR), and the discrete-event
// wireless simulation substrate the evaluation runs on.
//
// The paper's primary contribution lives in internal/core (the SLR
// framework), internal/frac and internal/label (the dense proper-fraction
// ordinal set), and internal/routing/srp (the SRP protocol). The
// benchmarks in bench_test.go regenerate every table and figure of the
// paper's §V; cmd/experiments prints them as text tables.
//
// The evaluation substrate is built for scale: internal/sim is a
// zero-steady-state-allocation event kernel — a ladder-queue scheduler
// (amortized O(1) push/pop, FIFO on (time, seq) ties, differentially
// fuzzed against a reference heap) over pooled events with
// generation-checked timers — internal/radio finds audible sets by
// walking a per-sender hearer list (the only audibility path; the
// exhaustive scan is its test oracle) that is rebuilt from an
// incremental spatial grid index once per mobility epoch, so the grid,
// and a fading model about a link, are asked once per sender per epoch
// rather than once per transmission, and
// internal/runner flattens the whole (protocol x pause x trial) grid into
// one job queue consumed by a pool of workers, streaming
// per-trial JSONL records as they complete. Identical seeds give
// identical results whatever the worker count — which is what lets a
// sweep span processes and crashes: -shard i/n runs a disjoint
// round-robin slice of the flattened jobs on each of n machines, -resume
// salvages the complete records of an interrupted JSONL (truncating a
// half-written tail) and re-runs only the trials whose identity key
// (protocol, pause, trial, seed) is absent, and cmd/slranalyze merges
// any number of shard files — de-duplicated on that key, short cells
// reported — into analysis output byte-identical to a single-process
// sweep. A failing emitter is disabled at its first error so the sweep
// finishes on the healthy sinks, and non-empty outputs are never
// clobbered without -resume or -force. A lost shard host loses nothing
// but its unfinished trials: re-running its -shard with -resume completes
// its file.
//
// Above the runner the orchestration is one pipeline written once: plan
// (cmd/experiments turns -scale|-spec, -trials, -seed, -pparam into a job
// list), run (runner.Run), records (runner.Record is the only thing that
// crosses from a run to a report), merge (experiments.MergeRecords) and
// render (one report-by-name function). Each binary is the front door for
// one job and owns its flags: cmd/slrsim runs one scenario, cmd/experiments
// sweeps (grid or -spec, shards, resume), and cmd/slranalyze reports from
// files.
//
// That byte-identical contract is machine-enforced: internal/analysis
// holds five analyzers — map-iteration order escaping into
// output or scheduling, wall-clock or global-rand use in sim-reachable
// code, float formatting outside the canonical runner.Key codec, pooled
// values retained past their callback, and a float converted to sim.Time
// outside internal/sim's checked sim.Seconds and saturating sim.Span —
// which cmd/slrlint runs
// over the whole repo through go vet -vettool (make lint) on a
// standard-library-only driver, so the module has no dependencies.
// Deliberate exceptions carry //slrlint:allow annotations with mandatory
// reasons.
//
// Workloads are declarative: internal/spec loads versioned JSON scenario
// files (see examples/scenarios/) that select every model by name from a
// registry — routing protocols (SRP, LDR, AODV, DSR, OLSR via
// internal/routing), mobility models (waypoint, static, gauss-markov,
// manhattan), traffic models (cbr, poisson, onoff), and radio propagation
// models (unit-disk, shadowing) — each with a validated
// parameter map. The routing registry's "protocol_params" section tunes
// protocol constants (hello/TC intervals, RREQ retry and TTL schedules,
// route lifetimes, SRP's label heuristics) per spec file, so
// protocol-parameter sweeps are ordinary scenario files; see
// examples/scenarios/aodv-aggressive.json. The paper's evaluation setup
// is the built-in "paper-default" spec; both cmd/slrsim and
// cmd/experiments take -spec, and -pparam overrides single constants.
// A spec is the only statement of a scenario: the paper grid's scales
// (experiments.Full, Mid, Small) are paper-default itself and copies of
// it with fewer nodes, flows, seconds and trials, and a grid point is
// its scale's spec with protocol, seed and pause laid over it.
//
// Measurement is a streaming pipeline: internal/metrics collects run
// totals, fixed-bucket log2 latency/hop histograms with exact
// bucket-bound percentiles, and a per-flow sent/recv/first-last-delivery
// ledger, all on an allocation-free per-packet path. Per-trial records
// are versioned and append-only ("schema": 2), and histogram merging is
// exact, so cmd/slranalyze reproduces Table I, every figure table, the
// latency-percentile table, and the shape verdicts from a sweep's JSONL
// alone — byte-identical to the in-process output, without re-simulating.
//
// The large-N tier keeps thousands-of-node scenarios tractable: OLSR's
// routing table is cached behind a structure version and an expiry
// horizon, its MPR set is selected only when its own HELLO reads it, and
// both rebuild into pooled storage (allocation-free in steady state,
// byte-identical per seed — see internal/routing/olsr), its neighbor and
// topology sweeps are horizon-gated, the MAC's steady-state path
// allocates nothing, and the radio channel's spatial grid amortizes
// position refreshes at N=5000 (BenchmarkChannelTransmitLargeN). The tier has its own
// reference scenarios (examples/scenarios/manhattan-5000.json and
// manhattan-20000.json), bench family (BenchmarkLargeN, through
// N=5000), and a timeboxed 20000-node CI smoke. cmd/slrsim's
// -cpuprofile and -memprofile flags make the next outlier one flag
// away.
//
// Execution is one serial kernel per trial: the Simulator pops the
// earliest (time, seq) event and fires it, and parallelism is across
// trials in internal/runner, one Simulator per trial.
//
// The routing control plane shares one toolkit: internal/routing/rcommon
// owns route discovery for the four on-demand protocols and its
// parameters (solicitation with the RREQ rate limit, TTL pick, retry
// back-off, hold-down and queue flush; a protocol only builds its RREQ),
// the RERR rate limiter, the periodic beaconer, duplicate-flood
// suppression, and the flat by-value id table (IDTable) that holds SRP's routes and
// OLSR's neighbors (OLSR's topology and routes, keyed by the whole network,
// are slices indexed by node id). internal/routing/rtest's
// conformance suite runs every
// registered protocol through a shared contract: quiet before Start,
// idempotent Start, deterministic replay at any worker count, and drops
// only from the canonical vocabulary. The data plane's arrival is
// netstack's: it delivers packets for its node and drops packets out of
// TTL for every protocol, and a drop's reason is a netstack.DropReason,
// so a reason outside the vocabulary does not compile.
//
// A network is wired one way: netstack.NewNetwork builds the channel, the
// collector and one node per mobility model, and scenario trials, rtest's
// protocol worlds and the examples all build through it. Its
// CheckLoopFree is the one loop-freedom checker (Theorem 3): every node's
// successor sets per destination, through internal/loopcheck, skipping a
// protocol that exposes none.
package slr
