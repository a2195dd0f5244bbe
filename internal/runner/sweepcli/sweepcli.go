// Package sweepcli is the one implementation of the command-line surface
// the simulation binaries share, so they cannot drift on flag names, help
// text, failure semantics or messaging:
//
//   - the plan (Selection): -scale | -spec, -trials, -seed, -pparam
//     resolved into the sweep's flattened job list, for cmd/experiments;
//   - the outputs (Flags): the -jsonl/-csv streams behind the
//     -resume/-force clobber and salvage guards (runner.OpenJSONLOutput,
//     runner.CreateOutput), and the -shard slice plus resume skip filter
//     the job list runs through;
//   - profiling (Profiles): -cpuprofile/-memprofile, for cmd/slrsim.
package sweepcli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"slr/internal/experiments"
	"slr/internal/routing"
	"slr/internal/runner"
	"slr/internal/scenario"
	"slr/internal/spec"
)

// Selection holds the flags that select which sweep runs: the paper grid
// at a -scale, or one -spec scenario's trial list.
type Selection struct {
	Scale   string
	Spec    string
	Trials  int
	Seed    int64
	PParams routing.ParamsFlag

	fs *flag.FlagSet
}

// RegisterSelection binds the sweep-selection flags onto fs.
func RegisterSelection(fs *flag.FlagSet) *Selection {
	s := &Selection{PParams: routing.ParamsFlag{}, fs: fs}
	fs.StringVar(&s.Scale, "scale", "mid", "sweep the paper grid at this scale: full, mid, small")
	fs.StringVar(&s.Spec, "spec", "", "sweep one scenario spec's trial list (path or built-in name) instead of the paper grid")
	fs.IntVar(&s.Trials, "trials", 0, "override trials per grid point, or per spec (0 = scale or spec default)")
	fs.Int64Var(&s.Seed, "seed", 1, "base random seed (a spec keeps its own unless this is given)")
	fs.Var(s.PParams, "pparam", "with -spec: protocol parameter override `name=value` (repeatable)")
	return s
}

// Plan is a resolved sweep: what runs, and how to label it.
type Plan struct {
	// Jobs is the flattened job list, before any -shard slice or resume
	// filter (Flags.Jobs applies those).
	Jobs []runner.Job
	// Scale is the grid geometry the grid reports need; nil for a spec
	// sweep, which has none.
	Scale *experiments.Scale
	// Name is a spec sweep's scenario name, the label of its trial
	// summary; empty for a grid.
	Name string
	// Descr is a one-line description of the sweep for the startup log.
	Descr string
}

// Plan resolves the selection into the sweep's job list. protos is the
// protocol set a grid covers (a spec names its own protocol). It touches
// no output file, so callers plan before they open anything: a bad spec or
// scale must not truncate existing results.
func (s *Selection) Plan(protos []scenario.ProtocolName) (*Plan, error) {
	if s.Trials < 0 {
		return nil, fmt.Errorf("-trials %d: must be positive, or 0 for the scale or spec default", s.Trials)
	}
	if s.Spec == "" {
		if len(s.PParams) > 0 {
			return nil, fmt.Errorf("-pparam requires -spec (the paper grid runs every protocol at its published constants)")
		}
		scale, err := experiments.ScaleByName(s.Scale)
		if err != nil {
			return nil, err
		}
		if s.Trials > 0 {
			scale.Trials = s.Trials
		}
		return &Plan{
			Jobs:  scale.Jobs(protos, s.Seed),
			Scale: &scale,
			Descr: fmt.Sprintf("%s scale: %d nodes, %d flows, %v, %d trials x %d pauses x %d protocols",
				scale.Name, scale.Nodes, scale.Flows, scale.Duration, scale.Trials,
				len(experiments.PauseFractions), len(protos)),
		}, nil
	}

	sp, err := spec.Resolve(s.Spec)
	if err != nil {
		return nil, err
	}
	p, err := sp.Params()
	if err != nil {
		return nil, err
	}
	if len(s.PParams) > 0 {
		// -pparam overrides merge over the spec's protocol_params; the
		// result must still be a scenario a spec file could describe.
		p.ProtoParams = routing.MergeParams(p.ProtoParams, s.PParams)
		if err := spec.ValidateParams(p); err != nil {
			return nil, err
		}
	}
	s.fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			p.Seed = s.Seed
		}
	})
	trials := s.Trials
	if trials == 0 {
		trials = sp.TrialCount()
	}
	name := sp.Name
	if name == "" {
		name = "scenario"
	}
	return &Plan{
		Jobs: runner.TrialJobs(p, trials),
		Name: name,
		Descr: fmt.Sprintf("spec %s: %s, %d nodes, %.0fx%.0f m, %v, mobility=%s traffic=%s propagation=%s, %d trials",
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

// Profiles holds the profiling flags.
type Profiles struct {
	CPU, Mem string
}

// RegisterProfiles binds -cpuprofile and -memprofile onto fs.
func RegisterProfiles(fs *flag.FlagSet) *Profiles {
	p := &Profiles{}
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a pprof CPU profile of the whole run to `file`")
	fs.StringVar(&p.Mem, "memprofile", "", "write a pprof heap profile (after GC, at exit) to `file`")
	return p
}

// Start starts CPU profiling (when -cpuprofile was given) and returns a
// stop function that finishes it and writes a post-GC heap profile (when
// -memprofile was given). Either may be absent independently.
func (p *Profiles) Start() (stop func() error, err error) {
	var cpuF *os.File
	if p.CPU != "" {
		f, err := os.Create(p.CPU)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cpuF = f
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if p.Mem != "" {
			f, err := os.Create(p.Mem)
			if err != nil {
				return err
			}
			defer f.Close()
			// Collect garbage first so the profile shows live steady-state
			// objects, not whatever the last trial left unreclaimed.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
		}
		return nil
	}, nil
}

// Flags holds the shared output and slicing flags after parsing. Zero
// values mean the flag was not given.
type Flags struct {
	// JSONL is the -jsonl per-trial stream path ("" = none).
	JSONL string
	// CSV is the -csv per-trial stream path ("" = none).
	CSV string
	// Resume continues an interrupted -jsonl stream instead of refusing
	// to touch it: salvage its complete records, skip their jobs, append
	// only the missing trials.
	Resume bool
	// Force overwrites an existing non-empty output.
	Force bool
	// Shard selects one deterministic 1/n slice of the flattened job
	// list.
	Shard runner.ShardSpec
}

// Register binds the shared output and slicing flags onto fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.JSONL, "jsonl", "", "stream per-trial results as JSON lines to this file")
	fs.StringVar(&f.CSV, "csv", "", "stream per-trial results as CSV to this file")
	fs.BoolVar(&f.Resume, "resume", false, "resume an interrupted -jsonl sweep: salvage its complete records, skip their jobs, append only the missing trials")
	fs.BoolVar(&f.Force, "force", false, "overwrite an existing non-empty output")
	fs.Var(&f.Shard, "shard", "run only shard `i/n` (1-based) of the flattened job list; concatenate the shards' JSONL and merge with slranalyze")
	return f
}

// Validate enforces the flag combinations every binary rejects the same
// way.
func (f *Flags) Validate() error {
	if f.Resume && f.JSONL == "" {
		return fmt.Errorf("-resume needs -jsonl: the JSONL stream is the checkpoint it salvages")
	}
	if f.Resume && f.CSV != "" {
		return fmt.Errorf("-resume cannot continue a CSV stream (records are not read back from CSV); resume with -jsonl alone")
	}
	return nil
}

// Outputs holds the opened per-trial streams.
type Outputs struct {
	// Salvaged are the complete records recovered from a resumed -jsonl
	// file (nil on a fresh start).
	Salvaged []runner.Record
	// Emitters stream completed trials to every requested output.
	Emitters []runner.Emitter

	files []*os.File
}

// Close closes every opened output file.
func (o *Outputs) Close() {
	for _, f := range o.files {
		f.Close()
	}
}

// Open creates (or, under -resume, reopens) the requested output streams
// behind the shared clobber/salvage guards, reporting salvage results to
// stderr. Callers invoke it only after every flag and spec has validated:
// an existing non-empty output is never truncated unless -force, and a
// typo elsewhere must not clobber an existing sweep's results.
func (f *Flags) Open(stderr io.Writer) (*Outputs, error) {
	out := &Outputs{}
	if f.JSONL != "" {
		recs, jf, err := runner.OpenJSONLOutput(f.JSONL, f.Resume, f.Force, stderr)
		if err != nil {
			return nil, err
		}
		out.Salvaged = recs
		out.files = append(out.files, jf)
		out.Emitters = append(out.Emitters, runner.NewJSONL(jf))
	}
	if f.CSV != "" {
		cf, err := runner.CreateOutput(f.CSV, f.Force)
		if err != nil {
			out.Close()
			return nil, err
		}
		out.files = append(out.files, cf)
		out.Emitters = append(out.Emitters, runner.NewCSV(cf))
	}
	return out, nil
}

// Jobs runs the job list through the shared shard/resume pipeline: the
// -shard slice first, then — under -resume — the skip filter fed by the
// salvaged records, with the shared progress/warning messages on stderr.
func (f *Flags) Jobs(jobs []runner.Job, o *Outputs, stderr io.Writer) []runner.Job {
	jobs = f.Shard.Select(jobs)
	if f.Resume {
		jobs = runner.ResumeJobs(jobs, o.Salvaged, stderr)
	}
	return jobs
}
