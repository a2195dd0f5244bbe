// Package runner executes simulation trials across all CPUs from one
// shared job queue.
//
// The paper's evaluation (§V) is one grid of (protocol x pause time x
// trial) simulation runs. The runner flattens any such grid into a single
// job list and consumes it with GOMAXPROCS workers: a free worker claims
// the next unclaimed job index from a shared atomic cursor. Long-running
// cells (a chatty protocol at zero pause) therefore never leave cores idle
// the way per-point parallelism does.
//
// Results are deterministic regardless of worker count: every job carries
// fully seeded scenario.Params fixed at flatten time, each trial runs on
// its own single-threaded sim.Simulator, and results[i] is written only by
// the worker that claimed job i. The same flattened grid produces
// byte-identical results under one worker, many workers, or the serial
// reference loop (scenario.RunTrials) — see TestRunnerMatchesSerial.
//
// Completed trials stream, in completion order, through optional Emitters
// (NewJSONL writes the per-trial Record) and an OnResult hook, serialized
// by the runner so sinks need no locking; a Progress writer gets a live
// line per completion.
//
// Around a run the package keeps what a sweep's output files need: each
// record's identity Key, the ShardSpec slice, the salvage and resume of an
// interrupted JSONL file (SalvageRecords, ResumeJSONL) and the clobber
// guard on a fresh one (CreateOutput). cmd/experiments plans, shards and
// resumes a sweep with them.
package runner

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"slr/internal/scenario"
)

// Job is one flattened grid cell trial: fully seeded parameters plus the
// coordinates it came from.
type Job struct {
	Index     int     // position in the flattened job list
	PauseFrac float64 // pause as a fraction of run duration (grid sweeps)
	Trial     int     // trial number within the grid point
	Params    scenario.Params
}

// TrialJobs flattens `trials` runs of p into jobs seeded p.Seed, p.Seed+1,
// ..., the same per-trial seeding as the serial scenario.RunTrials.
func TrialJobs(p scenario.Params, trials int) []Job {
	jobs := make([]Job, trials)
	for i := range jobs {
		tp := p
		tp.Seed = p.Seed + int64(i)
		jobs[i] = Job{Index: i, Trial: i, Params: tp}
	}
	return jobs
}

// GridJobs flattens a full (protocol x pause x trial) grid, protocol-major,
// reusing the same seeds across protocols so each trial compares protocols
// on identical topology and traffic, as the paper does. params builds the
// scenario for one grid point from its coordinates and trial seed.
func GridJobs(protos []scenario.ProtocolName, pauses []float64, trials int, seed int64,
	params func(proto scenario.ProtocolName, pauseFrac float64, seed int64) scenario.Params) []Job {
	jobs := make([]Job, 0, len(protos)*len(pauses)*trials)
	for _, proto := range protos {
		for _, pf := range pauses {
			for t := 0; t < trials; t++ {
				jobs = append(jobs, Job{
					Index:     len(jobs),
					PauseFrac: pf,
					Trial:     t,
					Params:    params(proto, pf, seed+int64(t)),
				})
			}
		}
	}
	return jobs
}

// Options configures a Run.
type Options struct {
	// Workers is the worker-goroutine count; 0 means GOMAXPROCS.
	Workers int
	// Progress receives one line per completed trial; nil is silent.
	Progress io.Writer
	// Emitters receive every completed trial in completion order. Calls
	// are serialized by the runner; emitters need no internal locking. An
	// emitter that returns an error is disabled — no further Emit or Flush
	// calls — while the sweep finishes on the healthy sinks; Run returns
	// the first error.
	Emitters []Emitter
	// OnResult, if set, observes every completed trial in completion
	// order, serialized like Emitters.
	OnResult func(Job, scenario.Result)
}

// Run executes every job and returns results in job order. Workers claim
// jobs in index order, so one worker runs them strictly in that order, one
// at a time. Worker count and completion order never affect the results,
// only the wall-clock time and the order sinks observe trials. An empty
// job list starts no worker and still flushes every emitter once. The
// returned error is the first Emitter error, if any; results are complete
// either way. A failed emitter (full disk, closed pipe) is disabled after
// its first error instead of being hammered with every remaining trial —
// which would interleave partial lines into the very file a resume later
// needs to salvage — and the other emitters keep streaming.
func Run(jobs []Job, opts Options) ([]scenario.Result, error) {
	n := len(jobs)
	results := make([]scenario.Result, n)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	var (
		next    atomic.Int64 // index of the next unclaimed job
		done    atomic.Int64
		sinkMu  sync.Mutex
		sinkErr error
		failed  = make([]bool, len(opts.Emitters))
		start   = time.Now() //slrlint:allow walltime progress-meter elapsed time, never reaches trial output
	)
	sink := func(i int) {
		d := done.Add(1)
		if opts.Progress == nil && opts.OnResult == nil && len(opts.Emitters) == 0 {
			return
		}
		sinkMu.Lock()
		defer sinkMu.Unlock()
		for ei, e := range opts.Emitters {
			if failed[ei] {
				continue
			}
			if err := e.Emit(jobs[i], results[i]); err != nil {
				failed[ei] = true
				if sinkErr == nil {
					sinkErr = err
				}
			}
		}
		if opts.OnResult != nil {
			opts.OnResult(jobs[i], results[i])
		}
		if opts.Progress != nil {
			r := results[i]
			fmt.Fprintf(opts.Progress, "[%*d/%d] %-4s pause=%v seed=%d deliv=%.3f (%v elapsed)\n",
				len(fmt.Sprint(n)), d, n, r.Protocol, r.Pause, r.Seed, r.DeliveryRatio,
				time.Since(start).Round(time.Millisecond)) //slrlint:allow walltime progress-meter elapsed time, never reaches trial output
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i] = scenario.Run(jobs[i].Params)
				sink(i)
			}
		}()
	}
	wg.Wait()

	for ei, e := range opts.Emitters {
		if failed[ei] {
			continue
		}
		if err := e.Flush(); err != nil && sinkErr == nil {
			sinkErr = err
		}
	}
	return results, sinkErr
}
