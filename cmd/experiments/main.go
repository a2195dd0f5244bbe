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
// prints their summary; -jsonl streams the trials the same way it does
// for the grid, and -pparam name=value (repeatable) overrides protocol
// constants on top of the spec's protocol_params.
//
// Either way the command is one pipeline: the flags resolve to a job list
// (plan), the runner turns jobs into records, and every printed table is
// experiments.MergeRecords over the fresh records plus any a -resume
// salvaged, rendered by name — the same merge and renderer cmd/slranalyze
// uses, so the two cannot disagree.
//
// Sweeps shard and resume: -shard i/n runs a deterministic 1/n slice of
// the flattened job grid so n processes (or machines) split the work, and
// -resume salvages an interrupted -jsonl stream — truncating any partial
// tail line — and appends only the trials whose (protocol, pause, trial,
// seed) identity key is not already present. Merge shard outputs with
// cmd/slranalyze. An existing non-empty -jsonl file is never overwritten
// unless -resume or -force says so.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"slr/internal/experiments"
	"slr/internal/routing"
	"slr/internal/runner"
	"slr/internal/scenario"
	"slr/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// config is the parsed command line.
type config struct {
	exp     string
	quiet   bool
	workers int

	// The sweep selection: the paper grid at scale, or spec's trial list.
	scale   string
	spec    string
	trials  int
	seed    int64
	seedSet bool // -seed was given; a spec keeps its own seed otherwise
	pparams routing.ParamsFlag

	// The output stream and the slice of the job list this process runs.
	jsonl  string
	resume bool
	force  bool
	shard  runner.ShardSpec
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	c := &config{pparams: routing.ParamsFlag{}}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&c.exp, "exp", "all", "report to print after a grid sweep: "+strings.Join(experiments.ReportKinds, ", ")+" (a figure restricted to a protocol subset sweeps only that subset)")
	fs.BoolVar(&c.quiet, "quiet", false, "suppress per-run progress output")
	fs.IntVar(&c.workers, "workers", 0, "worker goroutines for the sweep (0 = all CPUs)")
	fs.StringVar(&c.scale, "scale", "mid", "sweep the paper grid at this scale: full, mid, small")
	fs.StringVar(&c.spec, "spec", "", "sweep one scenario spec's trial list (path or built-in name) instead of the paper grid")
	fs.IntVar(&c.trials, "trials", 0, "override trials per grid point, or per spec (0 = scale or spec default)")
	fs.Int64Var(&c.seed, "seed", 1, "base random seed (a spec keeps its own unless this is given)")
	fs.Var(c.pparams, "pparam", "with -spec: protocol parameter override `name=value` (repeatable)")
	fs.StringVar(&c.jsonl, "jsonl", "", "stream per-trial results as JSON lines to this file")
	fs.BoolVar(&c.resume, "resume", false, "resume an interrupted -jsonl sweep: salvage its complete records, skip their jobs, append only the missing trials")
	fs.BoolVar(&c.force, "force", false, "overwrite an existing non-empty output")
	fs.Var(&c.shard, "shard", "run only shard `i/n` (1-based) of the flattened job list; concatenate the shards' JSONL and merge with slranalyze")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) { c.seedSet = c.seedSet || f.Name == "seed" })
	return c, nil
}

// sweep is a resolved plan: what runs, and how to label it.
type sweep struct {
	// jobs is the flattened job list, before any -shard slice or resume
	// filter.
	jobs []runner.Job
	// scale is the grid geometry the grid reports need; nil for a spec
	// sweep, which has none.
	scale *experiments.Scale
	// name is a spec sweep's scenario name, the label of its trial
	// summary; empty for a grid.
	name string
	// descr is a one-line description of the sweep for the startup log.
	descr string
}

// plan resolves the selection flags into the sweep's job list. protos is
// the protocol set a grid covers (a spec names its own protocol). It
// touches no output file, so run plans before it opens anything: a bad
// spec or scale must not truncate existing results.
func plan(c *config, protos []scenario.ProtocolName) (*sweep, error) {
	if c.trials < 0 {
		return nil, fmt.Errorf("-trials %d: must be positive, or 0 for the scale or spec default", c.trials)
	}
	if c.spec == "" {
		if len(c.pparams) > 0 {
			return nil, fmt.Errorf("-pparam requires -spec (the paper grid runs every protocol at its published constants)")
		}
		scale, err := experiments.ScaleByName(c.scale)
		if err != nil {
			return nil, err
		}
		if c.trials > 0 {
			scale.Spec.Trials = c.trials
		}
		return &sweep{
			jobs:  scale.Jobs(protos, c.seed),
			scale: &scale,
			descr: fmt.Sprintf("%s scale: %d nodes, %d flows, %v, %d trials x %d pauses x %d protocols",
				scale.Name, scale.Spec.Nodes, scale.Spec.Traffic.Flows, scale.Spec.Duration(), scale.Spec.TrialCount(),
				len(experiments.PauseFractions), len(protos)),
		}, nil
	}

	sp, err := spec.Resolve(c.spec)
	if err != nil {
		return nil, err
	}
	p, err := sp.Params()
	if err != nil {
		return nil, err
	}
	if len(c.pparams) > 0 {
		// -pparam overrides merge over the spec's protocol_params; the
		// result must still be a scenario a spec file could describe.
		p.ProtoParams = routing.MergeParams(p.ProtoParams, c.pparams)
		if err := spec.ValidateParams(p); err != nil {
			return nil, err
		}
	}
	if c.seedSet {
		p.Seed = c.seed
	}
	trials := c.trials
	if trials == 0 {
		trials = sp.TrialCount()
	}
	name := sp.Name
	if name == "" {
		name = "scenario"
	}
	return &sweep{
		jobs: runner.TrialJobs(p, trials),
		name: name,
		descr: fmt.Sprintf("spec %s: %s, %d nodes, %.0fx%.0f m, %v, mobility=%s traffic=%s propagation=%s, %d trials",
			name, p.Protocol, p.Nodes, p.Terrain.Width, p.Terrain.Height, p.Duration,
			sp.Mobility.Model, orDefault(sp.Traffic.Model, "cbr"), orDefault(sp.Radio.Propagation, "unit-disk"), trials),
	}, nil
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func run(args []string, stdout, stderr io.Writer) error {
	c, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	if c.resume && c.jsonl == "" {
		return fmt.Errorf("-resume needs -jsonl: the JSONL stream is the checkpoint it salvages")
	}
	protos, err := experiments.ReportProtos(c.exp)
	if err != nil {
		return fmt.Errorf("-exp: %w", err)
	}
	if c.spec != "" && c.exp != "all" && c.exp != "trials" {
		return fmt.Errorf("-exp %s needs the paper grid; a -spec sweep prints only its trials summary (-exp all or trials)", c.exp)
	}
	// Plan before touching any output file: a bad spec or scale must not
	// truncate existing -jsonl results.
	sw, err := plan(c, protos)
	if err != nil {
		return err
	}

	// Resume trusts the identity key alone: records carry no topology or
	// traffic fingerprint, so resuming with different scenario parameters
	// (node count, duration, ...) but the same key coordinates would
	// accept the old records as done. Resume a file only with the flags
	// that produced it.
	var (
		salvaged []runner.Record
		emitters []runner.Emitter
		f        *os.File
	)
	if c.jsonl != "" {
		if c.resume {
			var dropped int64
			if salvaged, f, dropped, err = runner.ResumeJSONL(c.jsonl); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "resume %s: %d complete records salvaged", c.jsonl, len(salvaged))
			if dropped > 0 {
				fmt.Fprintf(stderr, " (%d bytes of truncated tail dropped)", dropped)
			}
			fmt.Fprintln(stderr)
		} else if f, err = runner.CreateOutput(c.jsonl, c.force); err != nil {
			if errors.Is(err, runner.ErrWouldClobber) {
				// Only a refusal to clobber has -resume as the way out;
				// other errors (bad directory, permissions) would hit
				// -resume all the same.
				err = fmt.Errorf("%w (or -resume to continue the sweep)", err)
			}
			return err
		}
		defer f.Close()
		emitters = []runner.Emitter{runner.NewJSONL(f)}
	}

	fmt.Fprintf(stderr, "sweeping %s\n", sw.descr)
	if c.shard.Count > 1 {
		fmt.Fprintf(stderr, "shard %s: running a 1/%d slice; merge every shard's JSONL with slranalyze for the full sweep\n",
			c.shard, c.shard.Count)
	}
	// The shard slice comes first, so a resumed shard skips only its own
	// salvaged trials.
	jobs := c.shard.Select(sw.jobs)
	if c.resume {
		recs, _ := runner.DedupRecords(salvaged)
		done := runner.KeySet(recs)
		before := len(jobs)
		jobs = runner.SkipCompleted(jobs, done)
		skipped := before - len(jobs)
		fmt.Fprintf(stderr, "resume: %d of %d jobs already complete, running %d\n", skipped, before, len(jobs))
		if skipped < len(done) {
			// Every trial still re-runs and appends, but the file and the
			// tables then mix two sweeps, so that is warned, not silent.
			fmt.Fprintf(stderr, "resume: warning: %d salvaged records match no job of this run (different -seed, -trials, or -shard than the file was written with?); the output now mixes sweeps\n",
				len(done)-skipped)
		}
	}
	opts := runner.Options{Workers: c.workers, Emitters: emitters}
	if !c.quiet {
		opts.Progress = stderr
	}
	start := time.Now()
	// An emitter failure (e.g. disk full under -jsonl) must not discard a
	// fully computed sweep: print the tables, then report the error.
	fresh, sweepErr := experiments.SweepOpts(jobs, opts)
	fmt.Fprintf(stderr, "sweep finished in %v\n\n", time.Since(start).Round(time.Millisecond))

	// The tables cover the whole sweep, not just the trials this process
	// ran: salvaged and fresh records merge exactly as slranalyze merges
	// shard files.
	merged := experiments.MergeRecords(append(salvaged, fresh...))
	if sw.scale == nil {
		fmt.Fprint(stdout, merged.TrialsReport(sw.name))
	} else {
		rep, err := merged.Render(c.exp, sw.scale, protos)
		if err != nil {
			return err
		}
		if len(salvaged) > 0 {
			if len(rep.Leftover) > 0 {
				fmt.Fprintf(stderr, "%d salvaged records match no %s-scale grid cell (resumed with a different -scale?); left out of the tables\n",
					len(rep.Leftover), sw.scale.Name)
			}
			if len(rep.Missing) > 0 {
				fmt.Fprintf(stderr, "grid still missing %d cells after resume (different -seed or -shard?):\n", len(rep.Missing))
				for _, m := range rep.Missing {
					fmt.Fprintln(stderr, "  "+m)
				}
			}
		}
		fmt.Fprintln(stdout, rep.Text)
	}
	if sweepErr == nil && f != nil {
		sweepErr = f.Close()
	}
	if sweepErr != nil {
		return fmt.Errorf("per-trial streaming failed (tables above are complete): %w", sweepErr)
	}
	return nil
}
