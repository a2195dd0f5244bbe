// Command slrserve is the sweep coordinator daemon: sweep-as-a-service
// for the paper's evaluation. It owns one sweep's flattened job list —
// the paper grid at a -scale, or one -spec scenario's trial list — and
// serves the /v1 API that slrsim -worker pulls:
//
//	POST /v1/lease    lease a batch of fully parameterized jobs
//	POST /v1/records  acknowledge results (JSONL, the -jsonl schema)
//	GET  /v1/status   live progress counters
//	GET  /v1/report   merged analysis of the records so far
//
// Every accepted record is checkpointed to the -jsonl file; kill the
// daemon and restart it with -resume and it salvages the checkpoint,
// marks the finished trials done, and leases out only the rest. A worker
// that dies mid-batch loses nothing: its lease expires (-lease) and the
// jobs return to the pool. Determinism makes the result independent of
// who ran what — the finished sweep's report and checkpoint are
// byte-identical to a single-process run of the same flags.
//
// -shard i/n serves only that slice of the job list, so several
// coordinators can split a grid the same way sweep processes do.
//
// Example:
//
//	slrserve -scale mid -jsonl grid.jsonl                # paper grid
//	slrserve -spec paper-default -trials 10 -jsonl t.jsonl
//	slrserve -resume -scale mid -jsonl grid.jsonl        # after a crash
//	slrsim -worker http://localhost:8356 -batch 2        # on each machine
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"slr/internal/experiments"
	"slr/internal/routing"
	"slr/internal/runner"
	"slr/internal/runner/sweepcli"
	"slr/internal/scenario"
	"slr/internal/spec"
	"slr/internal/sweepd"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slrserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("slrserve", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8356", "listen address for the /v1 API")
		scaleName = fs.String("scale", "mid", "serve the paper grid at this scale: full, mid, small")
		specArg   = fs.String("spec", "", "serve one scenario spec's trial list (path or built-in name) instead of the paper grid")
		trials    = fs.Int("trials", 0, "override trials (0 = scale or spec default)")
		seed      = fs.Int64("seed", 1, "base random seed")
		lease     = fs.Duration("lease", 5*time.Minute, "lease timeout: how long a worker may hold a batch unacknowledged before it returns to the pool")
	)
	cli := sweepcli.Register(fs, false)
	protoParams := routing.ParamsFlag{}
	fs.Var(protoParams, "pparam", "with -spec: protocol parameter override `name=value` (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := cli.Validate(); err != nil {
		return err
	}
	if cli.JSONL == "" {
		return fmt.Errorf("-jsonl is required: it is the coordinator's checkpoint, the file a restarted -resume run and the final analysis read")
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

	// Build the flattened job list exactly as the single-process binaries
	// would, before touching the checkpoint file: a bad spec or scale must
	// not truncate existing results.
	var (
		jobs  []runner.Job
		opts  sweepd.Options
		descr string
	)
	if *specArg != "" {
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
		if seedSet {
			p.Seed = *seed
		}
		n := *trials
		if n <= 0 {
			n = s.TrialCount()
		}
		jobs = runner.TrialJobs(p, n)
		descr = fmt.Sprintf("spec %s: %s, %d trials", *specArg, p.Protocol, n)
	} else {
		scale, err := experiments.ScaleByName(*scaleName)
		if err != nil {
			return err
		}
		if *trials > 0 {
			scale.Trials = *trials
		}
		jobs = runner.GridJobs(scenario.AllProtocols, experiments.PauseFractions,
			scale.Trials, *seed, scale.Params)
		opts.Scale = &scale
		descr = fmt.Sprintf("%s-scale grid: %d protocols x %d pauses x %d trials",
			scale.Name, len(scenario.AllProtocols), len(experiments.PauseFractions), scale.Trials)
	}
	jobs = cli.Shard.Select(jobs)

	out, err := cli.Open(os.Stderr)
	if err != nil {
		return err
	}
	defer out.Close()
	// The coordinator checkpoints through the -jsonl file directly and
	// seeds its lease table from the salvaged records — the shared resume
	// pipeline's skip-set, expressed as "already done" instead of "not in
	// the job list", so /v1/status and /v1/report cover the whole sweep.
	opts.LeaseTimeout = *lease
	opts.Checkpoint = out.JSONLFile
	opts.Salvaged = out.Salvaged
	c, err := sweepd.New(jobs, opts)
	if err != nil {
		return err
	}

	st := c.Status()
	fmt.Fprintf(os.Stderr, "slrserve: %s; %d jobs (%d already done), lease %v\n",
		descr, st.Total, st.Done, *lease)
	if cli.Shard.Count > 1 {
		fmt.Fprintf(os.Stderr, "shard %s: serving a 1/%d slice of the job list\n", cli.Shard, cli.Shard.Count)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "listening on %s (POST %s, POST %s, GET %s, GET %s)\n",
		ln.Addr(), sweepd.PathLease, sweepd.PathRecords, sweepd.PathStatus, sweepd.PathReport)
	if onListen != nil {
		onListen(ln.Addr())
	}
	// Fixed deadlines so a stalled or trickling client cannot hold a
	// connection open forever; the read budget covers a full-size record
	// batch (sweepd caps the body) on a slow link.
	srv := &http.Server{
		Handler:           sweepd.NewHandler(c),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	return srv.Serve(ln)
}

// onListen, when set (tests), receives the bound address once the /v1
// surface is up.
var onListen func(net.Addr)
