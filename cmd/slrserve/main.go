// Command slrserve is the sweep coordinator daemon: sweep-as-a-service
// for the paper's evaluation. It owns one sweep's flattened job list —
// the paper grid at a -scale, or one -spec scenario's trial list — and
// serves the /v1 API that its workers pull:
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
// slrserve worker is the other end: it leases job batches from a
// coordinator over /v1, runs them on all local CPUs, and POSTs the
// records back until the sweep is done. Jobs arrive fully parameterized,
// so the subcommand has its own flags — -url, -id, -batch, -poll,
// -crash-after-lease, -cpuprofile, -memprofile — and no scenario or
// output flag exists there to misuse.
//
// Example:
//
//	slrserve -scale mid -jsonl grid.jsonl                # paper grid
//	slrserve -spec paper-default -trials 10 -jsonl t.jsonl
//	slrserve -resume -scale mid -jsonl grid.jsonl        # after a crash
//	slrserve worker -url http://localhost:8356 -batch 2  # on each machine
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"slr/internal/runner"
	"slr/internal/runner/sweepcli"
	"slr/internal/scenario"
	"slr/internal/sweepd"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slrserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 && args[0] == "worker" {
		return runWorker(args[1:])
	}
	fs := flag.NewFlagSet("slrserve", flag.ContinueOnError)
	var (
		addr  = fs.String("addr", ":8356", "listen address for the /v1 API")
		lease = fs.Duration("lease", 5*time.Minute, "lease timeout: how long a worker may hold a batch unacknowledged before it returns to the pool")
	)
	sel := sweepcli.RegisterSelection(fs)
	cli := sweepcli.Register(fs, false)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (the only subcommand is \"worker\")", fs.Arg(0))
	}
	if err := cli.Validate(); err != nil {
		return err
	}
	if cli.JSONL == "" {
		return fmt.Errorf("-jsonl is required: it is the coordinator's checkpoint, the file a restarted -resume run and the final analysis read")
	}

	// Plan the job list exactly as the single-process sweep would, before
	// touching the checkpoint file: a bad spec or scale must not truncate
	// existing results.
	plan, err := sel.Plan(scenario.AllProtocols)
	if err != nil {
		return err
	}
	out, err := cli.Open(os.Stderr)
	if err != nil {
		return err
	}
	defer out.Close()
	// The coordinator checkpoints through the -jsonl file directly and
	// seeds its lease table from the salvaged records — the shared resume
	// pipeline's skip-set, expressed as "already done" instead of "not in
	// the job list", so /v1/status and /v1/report cover the whole sweep.
	c, err := sweepd.New(cli.Shard.Select(plan.Jobs), sweepd.Options{
		LeaseTimeout: *lease,
		Checkpoint:   out.JSONLFile,
		Salvaged:     out.Salvaged,
		Scale:        plan.Scale,
	})
	if err != nil {
		return err
	}

	st := c.Status()
	fmt.Fprintf(os.Stderr, "slrserve: %s; %d jobs (%d already done), lease %v\n",
		plan.Descr, st.Total, st.Done, *lease)
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

// runWorker is the worker subcommand: it pulls and runs leased job batches
// from the coordinator at -url until the sweep is done.
func runWorker(args []string) (retErr error) {
	fs := flag.NewFlagSet("slrserve worker", flag.ContinueOnError)
	var (
		url   = fs.String("url", "", "base `URL` of the slrserve coordinator to pull from (required)")
		id    = fs.String("id", "", "identity reported to the coordinator (default hostname-pid)")
		batch = fs.Int("batch", 1, "jobs leased per pull")
		poll  = fs.Duration("poll", 2*time.Second, "wait between pulls while every pending job is leased elsewhere")
		crash = fs.Bool("crash-after-lease", false, "lease one batch, then exit 137 without acknowledging it (crash injection for lease-expiry tests)")
	)
	prof := sweepcli.RegisterProfiles(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("worker: unexpected argument %q", fs.Arg(0))
	}
	if *url == "" {
		return fmt.Errorf("worker: -url is required: the coordinator to pull jobs from")
	}
	stopProf, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	if *id == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		*id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &sweepd.Worker{URL: *url, ID: *id, Batch: *batch, Poll: *poll, Progress: os.Stderr}
	if *crash {
		// The lease-expiry failure the coordinator must tolerate: die with
		// the kill -9 exit status without acknowledging anything.
		w.OnLease = func(jobs []runner.Job) error {
			fmt.Fprintf(os.Stderr, "%s: leased %d jobs, exiting 137 without acknowledging (crash injection)\n", *id, len(jobs))
			os.Exit(137)
			return nil
		}
	}
	fmt.Fprintf(os.Stderr, "%s: pulling from %s (batch %d)\n", *id, *url, *batch)
	return w.Run()
}
