// Command experiments regenerates the paper's evaluation: Table I and
// Figures 3–7, by sweeping (protocol x pause time x trial) and printing
// text tables plus qualitative shape checks.
//
// The default -scale mid runs a half-size network that finishes in minutes
// on one machine while preserving the protocol ranking; -scale full runs
// the paper's exact 100-node / 30-flow / 900 s / 10-trial configuration
// (one trial per cell took 1 m 40 s on one 2-vCPU host and 5 m 42 s on
// another, so ten trials take minutes to an hour; -shard splits them).
//
// With -spec, the command instead sweeps the trials of one declarative
// scenario spec (a JSON file or a built-in name like "paper-default") and
// prints their summary; -jsonl/-csv stream the trials the same way they do
// for the grid, and -pparam name=value (repeatable) overrides protocol
// constants on top of the spec's protocol_params.
//
// Either way the command is one pipeline: the flags resolve to a job list
// (sweepcli.Selection), the runner turns jobs into records, and every
// printed table is experiments.MergeRecords over the fresh records plus
// any a -resume salvaged, rendered by name — the same merge and renderer
// cmd/slranalyze uses, so the two cannot disagree.
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
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"slr/internal/experiments"
	"slr/internal/runner"
	"slr/internal/runner/sweepcli"
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
		exp     = fs.String("exp", "all", "report to print after a grid sweep: "+strings.Join(experiments.ReportKinds, ", ")+" (a figure restricted to a protocol subset sweeps only that subset)")
		quiet   = fs.Bool("quiet", false, "suppress per-run progress output")
		workers = fs.Int("workers", 0, "worker goroutines for the sweep (0 = all CPUs)")
	)
	sel := sweepcli.RegisterSelection(fs)
	cli := sweepcli.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cli.Validate(); err != nil {
		return err
	}
	protos, err := experiments.ReportProtos(*exp)
	if err != nil {
		return fmt.Errorf("-exp: %w", err)
	}
	// Plan before touching any output file: a bad spec or scale must not
	// truncate existing -jsonl/-csv results.
	plan, err := sel.Plan(protos)
	if err != nil {
		return err
	}
	out, err := cli.Open(os.Stderr)
	if err != nil {
		return err
	}
	defer out.Close()

	fmt.Fprintf(os.Stderr, "sweeping %s\n", plan.Descr)
	if cli.Shard.Count > 1 {
		fmt.Fprintf(os.Stderr, "shard %s: running a 1/%d slice; merge every shard's JSONL with slranalyze for the full sweep\n",
			cli.Shard, cli.Shard.Count)
	}
	jobs := cli.Jobs(plan.Jobs, out, os.Stderr)
	opts := runner.Options{Workers: *workers, Emitters: out.Emitters}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	start := time.Now()
	// An emitter failure (e.g. disk full under -jsonl) must not discard a
	// fully computed sweep: print the tables, then report the error.
	fresh, sweepErr := experiments.SweepOpts(jobs, opts)
	fmt.Fprintf(os.Stderr, "sweep finished in %v\n\n", time.Since(start).Round(time.Millisecond))

	// The tables cover the whole sweep, not just the trials this process
	// ran: salvaged and fresh records merge exactly as slranalyze merges
	// shard files.
	merged := experiments.MergeRecords(append(out.Salvaged, fresh...))
	if plan.Scale == nil {
		fmt.Print(merged.TrialsReport(plan.Name))
	} else {
		rep, err := merged.Render(*exp, plan.Scale, protos)
		if err != nil {
			return err
		}
		if len(out.Salvaged) > 0 {
			if len(rep.Leftover) > 0 {
				fmt.Fprintf(os.Stderr, "%d salvaged records match no %s-scale grid cell (resumed with a different -scale?); left out of the tables\n",
					len(rep.Leftover), plan.Scale.Name)
			}
			if len(rep.Missing) > 0 {
				fmt.Fprintf(os.Stderr, "grid still missing %d cells after resume (different -seed or -shard?):\n", len(rep.Missing))
				for _, m := range rep.Missing {
					fmt.Fprintln(os.Stderr, "  "+m)
				}
			}
		}
		fmt.Println(rep.Text)
	}
	if sweepErr != nil {
		return fmt.Errorf("per-trial streaming failed (tables above are complete): %w", sweepErr)
	}
	return nil
}
