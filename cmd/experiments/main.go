// Command experiments regenerates the paper's evaluation: Table I and
// Figures 3–7, by sweeping (protocol x pause time x trial) and printing
// text tables plus qualitative shape checks.
//
// The default -scale mid runs a half-size network that finishes in minutes
// on one machine while preserving the protocol ranking; -scale full runs
// the paper's exact 100-node / 30-flow / 900 s / 10-trial configuration
// (hours of CPU).
//
// With -spec, the command instead runs the trials of one declarative
// scenario spec (a JSON file or a built-in name like "paper-default") and
// prints the per-trial results and their summary; -jsonl/-csv stream the
// trials the same way they do for a sweep, and -pparam name=value
// (repeatable) overrides protocol constants on top of the spec's
// protocol_params.
//
// Sweeps shard and resume: -shard i/n runs a deterministic 1/n slice of
// the flattened job grid so n processes (or machines) split the work, and
// -resume salvages an interrupted -jsonl stream — truncating any partial
// tail line — and appends only the trials whose (protocol, pause, trial,
// seed) identity key is not already present. Merge shard outputs with
// cmd/slranalyze. An existing non-empty -jsonl/-csv file is never
// overwritten unless -resume or -force says so.
//
// Example:
//
//	experiments -scale mid -exp all
//	experiments -scale full -exp fig5 -trials 10
//	experiments -scale full -shard 1/4 -jsonl shard1.jsonl   # x4 machines
//	experiments -scale full -resume -jsonl shard1.jsonl      # after a crash
//	experiments -spec examples/scenarios/manhattan-500.json
//	experiments -spec paper-default -trials 3
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"slr/internal/experiments"
	"slr/internal/routing"
	"slr/internal/runner"
	"slr/internal/runner/sweepcli"
	"slr/internal/scenario"
	"slr/internal/spec"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		scaleName = fs.String("scale", "mid", "experiment scale: full, mid, small")
		exp       = fs.String("exp", "all", "experiment: all, table1, fig3, fig4, fig5, fig6, fig7")
		specArg   = fs.String("spec", "", "run one scenario spec (path or built-in name) instead of the paper grid")
		trials    = fs.Int("trials", 0, "override trials per grid point (0 = scale default)")
		seed      = fs.Int64("seed", 1, "base random seed")
		quiet     = fs.Bool("quiet", false, "suppress per-run progress output")
		workers   = fs.Int("workers", 0, "worker goroutines for the sweep (0 = all CPUs)")
		jsonOut   = fs.String("json", "", "also write the raw grid as JSON to this file")
	)
	cli := sweepcli.Register(fs, true)
	protoParams := routing.ParamsFlag{}
	fs.Var(protoParams, "pparam", "with -spec: protocol parameter override `name=value` (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cli.Validate(); err != nil {
		return err
	}
	if len(protoParams) > 0 && *specArg == "" {
		return fmt.Errorf("-pparam requires -spec (the paper grid runs every protocol at its published constants)")
	}
	seedSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})

	scale, err := experiments.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	if *trials > 0 {
		scale.Trials = *trials
	}

	if *specArg != "" {
		// Resolve the spec before touching any output file: a bad spec
		// must not truncate existing -jsonl/-csv results.
		s, err := spec.Resolve(*specArg)
		if err != nil {
			return err
		}
		p, err := s.Params()
		if err != nil {
			return err
		}
		if len(protoParams) > 0 {
			p.ProtoParams = routing.MergeParams(p.ProtoParams, protoParams)
			if err := routing.Validate(routing.Spec{Name: string(p.Protocol), Params: p.ProtoParams}); err != nil {
				return err
			}
		}
		out, err := cli.Open(os.Stderr)
		if err != nil {
			return err
		}
		defer out.Close()
		return runSpec(s, p, *trials, *seed, seedSet, *workers, *quiet, cli, out)
	}

	protos := scenario.AllProtocols
	var metric *experiments.Metric
	switch *exp {
	case "all", "table1":
	default:
		metric = experiments.MetricByName[*exp]
		if metric == nil {
			return fmt.Errorf("unknown experiment %q", *exp)
		}
		if metric.Protos != nil {
			// Figures restricted to a protocol subset (Fig. 7) only
			// sweep that subset.
			protos = metric.Protos
		}
	}

	if *jsonOut != "" {
		// The -json report is rewritten whole after the sweep; refuse a
		// clobber now, before hours of compute, not at write time. A
		// resumed sweep regenerates the report by design, so -resume
		// authorizes the rewrite like -force does.
		if err := runner.CheckClobber(*jsonOut, cli.Force || cli.Resume); err != nil {
			return err
		}
	}
	out, err := cli.Open(os.Stderr)
	if err != nil {
		return err
	}
	defer out.Close()
	opts := experiments.SweepOptions{
		Workers: *workers, Emitters: out.Emitters,
		Shard: cli.Shard, SkipDone: runner.KeySet(out.Salvaged),
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}

	fmt.Fprintf(os.Stderr, "sweeping %s scale: %d nodes, %d flows, %v, %d trials x %d pauses x %d protocols\n",
		scale.Name, scale.Nodes, scale.Flows, scale.Duration, scale.Trials,
		len(experiments.PauseFractions), len(protos))
	if cli.Shard.Count > 1 {
		fmt.Fprintf(os.Stderr, "shard %s: running a 1/%d slice; merge every shard's JSONL with slranalyze for the full grid\n",
			cli.Shard, cli.Shard.Count)
	}
	start := time.Now()
	// An emitter failure (e.g. disk full under -jsonl) must not discard a
	// fully computed grid: print the tables, then report the error.
	grid, sweepErr := experiments.SweepOpts(scale, protos, *seed, opts)
	fmt.Fprintf(os.Stderr, "sweep finished in %v\n\n", time.Since(start).Round(time.Second))

	if cli.Resume && len(out.Salvaged) > 0 {
		// The tables should cover the whole sweep, not just the trials this
		// process re-ran: merge the salvaged records with the fresh ones
		// through the shared merge entry point, exactly as slranalyze
		// merges shard files (dedup on the identity key, though SkipDone
		// already made the sets disjoint). Reconstructed tables are
		// byte-identical to live ones (see cmd/slranalyze's tests).
		merged, leftover := experiments.MergeRecords(append(out.Salvaged, grid.JSON().Runs...)).Grid(scale)
		if len(leftover) > 0 {
			fmt.Fprintf(os.Stderr, "%d salvaged records match no %s-scale grid cell (resumed with a different -scale?); left out of the tables\n",
				len(leftover), scale.Name)
		}
		grid = merged
		if missing := grid.MissingCells(); len(missing) > 0 {
			fmt.Fprintf(os.Stderr, "grid still missing %d cells after resume (different -seed or -shard?):\n", len(missing))
			for _, m := range missing {
				fmt.Fprintln(os.Stderr, "  "+m)
			}
		}
	}

	switch *exp {
	case "all":
		fmt.Println(grid.Report())
	case "table1":
		fmt.Println(grid.Table1())
	default:
		fmt.Println(grid.FigureTable(*metric))
	}
	if *jsonOut != "" {
		blob, err := json.MarshalIndent(grid.JSON(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, blob, 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", *jsonOut, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
	if sweepErr != nil {
		return fmt.Errorf("per-trial streaming failed (tables above are complete): %w", sweepErr)
	}
	return nil
}

// runSpec runs the trials of one resolved scenario spec on the
// all-cores runner and prints the trial summary. A shard runs only its
// slice of the trial list; salvaged records from a resumed JSONL skip
// their jobs and fold back into the printed summary.
func runSpec(s *spec.ScenarioSpec, p scenario.Params, trials int, seed int64, seedSet bool, workers int, quiet bool, cli *sweepcli.Flags, out *sweepcli.Outputs) error {
	if seedSet {
		p.Seed = seed
	}
	if trials <= 0 {
		trials = s.TrialCount()
	}
	name := s.Name
	if name == "" {
		name = "scenario"
	}
	fmt.Fprintf(os.Stderr, "spec %s: %s, %d nodes, %.0fx%.0f m, %v, mobility=%s traffic=%s propagation=%s, %d trials\n",
		name, p.Protocol, p.Nodes, p.Terrain.Width, p.Terrain.Height, p.Duration,
		s.Mobility.Model, orDefault(s.Traffic.Model, "cbr"), orDefault(s.Radio.Propagation, "unit-disk"), trials)
	jobs := cli.Jobs(runner.TrialJobs(p, trials), out, os.Stderr)
	opts := runner.Options{Workers: workers, Emitters: out.Emitters}
	if !quiet {
		opts.Progress = os.Stderr
	}
	start := time.Now()
	results, err := runner.Run(jobs, opts)
	fmt.Fprintf(os.Stderr, "finished in %v\n\n", time.Since(start).Round(time.Millisecond))
	if len(out.Salvaged) > 0 {
		// Fold the salvaged trials back in so the summary covers the whole
		// trial set, not just the jobs this process re-ran.
		recs := append([]runner.Record{}, out.Salvaged...)
		for i, j := range jobs {
			recs = append(recs, runner.NewRecord(j, results[i]))
		}
		for i, ts := range experiments.Groups(recs) {
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(experiments.TrialReport(name, ts))
		}
	} else {
		ts := scenario.TrialSet{Protocol: p.Protocol, Pause: p.Pause, Results: results}
		fmt.Print(experiments.TrialReport(name, ts))
	}
	if err != nil {
		return fmt.Errorf("per-trial streaming failed (summary above is complete): %w", err)
	}
	return nil
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
