// Command slrsim runs one wireless ad hoc routing scenario — one
// configuration, -trials seeds of it — and prints each trial's metrics.
//
// The scenario starts from a baseline spec: -spec (a declarative scenario
// file, or a built-in name) or, without it, the built-in "paper-default"
// run once. Any topology or workload flag given explicitly on the command
// line overrides the baseline's value, and the result must pass the same
// validation a spec file does.
//
// -pparam name=value (repeatable) overrides one protocol constant using
// the same vocabulary as the spec's "protocol_params" section.
//
// -jsonl writes one record per trial, in trial order once the run ends,
// the same schema the sweep binary writes; an existing non-empty file
// needs -force. Sweeps — shards, resume, many configurations — are
// cmd/experiments' job (-spec there runs this command's scenario as a
// sweep).
//
// -cpuprofile and -memprofile write pprof profiles of the run, so finding
// the next hot spot in a large-N scenario is one flag away: go tool pprof
// slrsim cpu.out. The heap profile is taken at the simulated end of the
// last trial to start, after a GC, while that trial's nodes are still
// live: its in-use view is what a trial holds, and its allocation view
// covers every trial up to that instant. The records do not change.
//
// Example:
//
//	slrsim -protocol SRP -nodes 100 -pause 0 -flows 30 -duration 900s -seed 1
//	slrsim -spec examples/scenarios/manhattan-500.json -trials 1
//	slrsim -spec paper-default -protocol AODV
//	slrsim -protocol AODV -pparam rreq_retries=4 -pparam ttl_0=35
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"

	"slr/internal/mobility"
	"slr/internal/routing"
	"slr/internal/runner"
	"slr/internal/scenario"
	"slr/internal/sim"
	"slr/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "slrsim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (retErr error) {
	fs := flag.NewFlagSet("slrsim", flag.ContinueOnError)
	// The defaults shown are paper-default's values; a flag takes effect
	// only when given, so under -spec the spec's values are the defaults.
	d := spec.PaperDefault()
	var (
		protoName = fs.String("protocol", d.Protocol, "routing protocol: SRP, LDR, AODV, DSR, OLSR")
		nodes     = fs.Int("nodes", d.Nodes, "number of nodes")
		width     = fs.Float64("width", d.Terrain.WidthM, "terrain width in meters")
		height    = fs.Float64("height", d.Terrain.HeightM, "terrain height in meters")
		rng       = fs.Float64("range", d.Radio.RangeM, "radio range in meters")
		pause     = fs.Duration("pause", 0, "random-waypoint pause time")
		maxSpeed  = fs.Float64("speed", d.Mobility.MaxSpeedMps, "maximum node speed in m/s")
		duration  = fs.Duration("duration", d.Duration(), "simulated time")
		seed      = fs.Int64("seed", d.Seed, "random seed (fixes topology and traffic)")
		flows     = fs.Int("flows", d.Traffic.Flows, "concurrent CBR flows")
		rate      = fs.Float64("rate", d.Traffic.RatePps, "packets per second per flow")
		pktSize   = fs.Int("size", d.Traffic.PacketSizeBytes, "CBR payload bytes")
		check     = fs.Bool("check", false, "verify loop-freedom invariant during the run")
		ordrcheck = fs.Bool("ordercheck", false, "shadow the event queue with a reference implementation and verify dispatch order (slow; debugging aid)")
		trials    = fs.Int("trials", 1, "independent trials (seeds seed..seed+trials-1; default 1, or the spec's count under -spec)")
		specArg   = fs.String("spec", "", "scenario spec (path or built-in name) as the baseline; explicit flags override it")
		jsonl     = fs.String("jsonl", "", "stream per-trial results as JSON lines to this file")
		force     = fs.Bool("force", false, "overwrite an existing non-empty -jsonl file")
		cpuProf   = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to `file`")
		memProf   = fs.String("memprofile", "", "write a pprof heap profile, taken at the end of the last trial while it is live, to `file`")
	)
	protoParams := routing.ParamsFlag{}
	fs.Var(protoParams, "pparam", "protocol parameter override `name=value` (repeatable); keys follow the spec's protocol_params vocabulary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })

	s := d
	if *specArg != "" {
		var err error
		if s, err = spec.Resolve(*specArg); err != nil {
			return err
		}
		if !set["trials"] {
			*trials = s.TrialCount()
		}
	}
	if *trials < 1 {
		return fmt.Errorf("-trials %d: must be at least 1", *trials)
	}
	p, err := s.Params()
	if err != nil {
		return err
	}
	// Explicit flags override the baseline.
	if proto := scenario.ProtocolName(strings.ToUpper(*protoName)); set["protocol"] && p.Protocol != proto {
		// The spec's protocol_params described the spec's protocol; they
		// do not carry over to a different one.
		p.Protocol = proto
		p.ProtoParams = nil
	}
	if set["nodes"] {
		p.Nodes = *nodes
	}
	if set["width"] {
		p.Terrain.Width = *width
	}
	if set["height"] {
		p.Terrain.Height = *height
	}
	if set["range"] {
		p.Range = *rng
	}
	if set["duration"] {
		p.Duration = *duration
	}
	if set["seed"] {
		p.Seed = *seed
	}
	if set["flows"] {
		p.Traffic.Flows = *flows
	}
	if set["rate"] {
		p.Traffic.Rate = *rate
	}
	if set["size"] {
		p.Traffic.PacketSize = *pktSize
	}
	if set["pause"] || set["speed"] {
		// Overriding motion flags drops the spec's mobility model back to
		// the waypoint those flags describe, keeping the spec's value for
		// whichever of the pair was not given and never letting the floor
		// exceed the new speed ceiling.
		mob := mobility.Spec{Model: "waypoint", MaxSpeed: p.Mobility.MaxSpeed, Pause: p.Mobility.Pause}
		if set["speed"] {
			mob.MaxSpeed = *maxSpeed
		}
		if set["pause"] {
			mob.Pause = *pause
		}
		mob.MinSpeed = math.Min(p.Mobility.MinSpeed, mob.MaxSpeed)
		p.Mobility = mob
	}
	if set["check"] {
		p.CheckInvariants = *check
	}
	// -pparam overrides merge over the spec's protocol_params.
	p.ProtoParams = routing.MergeParams(p.ProtoParams, protoParams)
	// One place says what a runnable scenario is: the overlaid parameters
	// pass the rules a spec file passes, or nothing runs.
	if err := spec.ValidateParams(p); err != nil {
		return err
	}

	var out *os.File
	if *jsonl != "" {
		if out, err = runner.CreateOutput(*jsonl, *force); err != nil {
			return err
		}
		defer out.Close()
	}
	stopProf, err := startCPUProfile(*cpuProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()
	// Each trial's fresh kernel passes through the hook: -ordercheck pairs
	// every ladder-queue dispatch against a reference queue, and
	// -memprofile schedules the heap profile into the last trial to start.
	// The profile's event takes one sequence number before any other, so
	// every other event keeps its order and the records their bytes.
	var (
		started atomic.Int64
		heapAt  = p.Duration + scenario.Drain
		heapErr = fmt.Errorf("memprofile: the last trial ended before t=%v", heapAt)
	)
	if *ordrcheck || *memProf != "" {
		scenario.SimHook = func(s *sim.Simulator) {
			if *ordrcheck {
				s.EnableOrderCheck()
			}
			if *memProf != "" && started.Add(1) == int64(*trials) {
				s.At(heapAt, func() { heapErr = writeHeapProfile(*memProf) })
			}
		}
		defer func() { scenario.SimHook = nil }()
	}

	jobs := runner.TrialJobs(p, *trials)
	results, _ := runner.Run(jobs, runner.Options{}) // errors come only from emitters; there are none
	if *memProf != "" && heapErr != nil {
		return heapErr
	}
	ts := scenario.TrialSet{Protocol: p.Protocol, Pause: p.Mobility.Pause, Results: results}
	for _, r := range ts.Results {
		fmt.Fprintf(stdout, "protocol=%s seed=%d pause=%v\n", r.Protocol, r.Seed, r.Pause)
		fmt.Fprintf(stdout, "  delivery ratio  %.4f  (%d/%d)\n", r.DeliveryRatio, r.DataRecv, r.DataSent)
		fmt.Fprintf(stdout, "  network load    %.4f  (%d control packets)\n", r.NetworkLoad, r.ControlTx)
		fmt.Fprintf(stdout, "  latency         %.4f s\n", r.Latency)
		fmt.Fprintf(stdout, "  mean hops       %.2f\n", r.MeanHops)
		fmt.Fprintf(stdout, "  MAC drops/node  %.1f\n", r.MACDrops)
		fmt.Fprintf(stdout, "  avg seqno       %.2f\n", r.AvgSeqno)
		if r.MaxDenom > 0 {
			fmt.Fprintf(stdout, "  max denominator %d\n", r.MaxDenom)
		}
		if p.CheckInvariants {
			fmt.Fprintf(stdout, "  loop checks     %d (%d violations)\n", r.LoopChecks, len(r.LoopErrors))
			for _, e := range r.LoopErrors {
				fmt.Fprintf(stdout, "    VIOLATION %s\n", e)
			}
		}
	}
	if len(ts.Results) > 1 {
		n := len(ts.Results)
		deliv := ts.Series(func(r scenario.Result) float64 { return r.DeliveryRatio })
		load := ts.Series(func(r scenario.Result) float64 { return r.NetworkLoad })
		lat := ts.Series(func(r scenario.Result) float64 { return r.Latency })
		fmt.Fprintf(stdout, "mean over %d trials: deliv %.4f±%.4f  load %.4f±%.4f  latency %.4f±%.4f",
			n, deliv.Mean(), deliv.CI(), load.Mean(), load.CI(), lat.Mean(), lat.CI())
		if load.NaNs > 0 {
			// Zero-delivery trials have no load ratio; say the sample
			// shrank instead of printing a mean that looks measured.
			fmt.Fprintf(stdout, "  (load n/a in %d of %d trials)", load.NaNs, n)
		}
		fmt.Fprintln(stdout)
	}
	if out == nil {
		return nil
	}
	// The records go out after the run, in trial order, so a file's bytes
	// do not depend on which worker finished first. A write failure (e.g.
	// disk full) still leaves the metrics above complete.
	em := runner.NewJSONL(out)
	for i, r := range results {
		if err := em.Emit(jobs[i], r); err != nil {
			return fmt.Errorf("writing -jsonl (metrics above are complete): %w", err)
		}
	}
	if err := em.Flush(); err != nil {
		return fmt.Errorf("writing -jsonl (metrics above are complete): %w", err)
	}
	return out.Close()
}

// startCPUProfile starts CPU profiling into path (when given) and returns
// a stop function that finishes it.
func startCPUProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		return nil
	}, nil
}

// writeHeapProfile writes a heap profile to path. It collects garbage
// first: a heap profile's in-use view is as of the last completed GC, and
// this one is to show what the caller's trial holds now.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("memprofile: %w", err)
	}
	return f.Close()
}
