// Package sweepd is the sweep coordinator: the server side of
// sweep-as-a-service. A Coordinator owns one sweep's flattened job list
// (the same runner.Job list a single process would consume), leases
// identity-keyed job batches to pulling workers, re-leases a batch whose
// lease expired (a dead worker's jobs simply return to the pool), ingests
// streamed record batches with identity-key validation and dedup,
// checkpoints every accepted record to a resumable JSONL stream, and
// serves live merged analyses through the same machinery as
// cmd/slranalyze.
//
// The package is pure coordination logic — no sockets: the /v1 HTTP
// surface wraps it in http.go, and the pulling worker client lives in
// worker.go. Determinism does the heavy lifting: because every job
// carries fully seeded scenario.Params fixed at flatten time, it does not
// matter which worker runs a trial, how often a re-leased trial runs, or
// in what order records arrive — the merged record set, and therefore
// every analysis byte, is identical to a single-process sweep of the same
// job list.
//
// Lease lifecycle: a job is pending, leased, or done. Lease hands out
// pending jobs in flattened-list order and stamps each with a deadline;
// Ingest moves a job to done when a record with its canonical identity
// key (runner.Key.String) arrives, wherever it came from — the current
// leaseholder, a previous one whose lease expired (late records are
// accepted; the duplicate that follows is dropped), or a salvaged
// checkpoint. A leased job whose deadline passes silently returns to
// pending at the next Lease or Status call; acknowledging the same key
// twice is a no-op counted as a duplicate. The sweep is done when every
// job is.
package sweepd

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"slr/internal/experiments"
	"slr/internal/runner"
)

// jobState is one job's position in the lease lifecycle.
type jobState uint8

const (
	statePending jobState = iota
	stateLeased
	stateDone
)

// entry is one job's lease-table row.
type entry struct {
	job      runner.Job
	state    jobState
	worker   string    // current or last leaseholder
	deadline time.Time // lease expiry while leased
}

// Options configures a Coordinator.
type Options struct {
	// LeaseTimeout is how long a leased batch may stay unacknowledged
	// before its jobs return to the pool. It must exceed the wall-clock
	// time a worker needs for one batch; the default is 5 minutes.
	LeaseTimeout time.Duration
	// Now is the clock, injectable for tests; nil means time.Now.
	Now func() time.Time
	// Checkpoint receives every accepted record as one JSON line, in
	// acceptance order — the coordinator's crash story: point it at a
	// file opened through runner.OpenJSONLOutput and a restarted
	// coordinator resumes from the salvaged records (see Salvaged). Nil
	// keeps records in memory only.
	Checkpoint io.Writer
	// Salvaged seeds already-completed trials, typically the records
	// runner.OpenJSONLOutput recovered from the checkpoint of a killed
	// coordinator. Records matching a job mark it done without re-running
	// it; records matching no job are kept for reporting (they are
	// already in the checkpoint file) and counted in Status.Foreign.
	Salvaged []runner.Record
	// Scale, when set, enables the grid report views (table1, fig3...,
	// percentiles, shape, all) at that sweep geometry; nil serves only
	// the "trials" view.
	Scale *experiments.Scale
}

// Coordinator owns one sweep's job list and lease table. All methods are
// safe for concurrent use.
type Coordinator struct {
	mu           sync.Mutex
	now          func() time.Time
	leaseTimeout time.Duration
	jobs         []runner.Job // flattened order; lease scan order
	entries      map[string]*entry
	accepted     []runner.Record // salvaged + ingested, acceptance order
	foreign      int             // salvaged records matching no job
	checkpoint   *json.Encoder   // nil without a checkpoint writer
	flush        func() error
	scale        *experiments.Scale
	started      time.Time
	workers      map[string]time.Time // worker id -> last contact
	done         int
}

// New builds a coordinator over one sweep's flattened job list. Jobs must
// have distinct identity keys (a flattened grid or trial list always
// does); duplicates are rejected rather than silently merged, since two
// jobs behind one key could never both complete.
func New(jobs []runner.Job, opts Options) (*Coordinator, error) {
	c := &Coordinator{
		now:          opts.Now,
		leaseTimeout: opts.LeaseTimeout,
		jobs:         jobs,
		entries:      make(map[string]*entry, len(jobs)),
		scale:        opts.Scale,
		workers:      make(map[string]time.Time),
	}
	if c.now == nil {
		c.now = time.Now
	}
	if c.leaseTimeout <= 0 {
		c.leaseTimeout = 5 * time.Minute
	}
	if opts.Checkpoint != nil {
		c.checkpoint = json.NewEncoder(opts.Checkpoint)
		if f, ok := opts.Checkpoint.(interface{ Sync() error }); ok {
			c.flush = f.Sync
		}
	}
	for _, j := range jobs {
		k := j.Key().String()
		if _, dup := c.entries[k]; dup {
			return nil, fmt.Errorf("sweepd: duplicate job key %s in the job list", k)
		}
		c.entries[k] = &entry{job: j}
	}
	salvaged, _ := runner.DedupRecords(opts.Salvaged)
	for _, rec := range salvaged {
		// Salvaged records are already in the checkpoint file; accept them
		// without re-writing.
		if e, ok := c.entries[rec.Key().String()]; ok {
			if e.state == stateDone {
				continue
			}
			e.state = stateDone
			c.done++
		} else {
			c.foreign++
		}
		c.accepted = append(c.accepted, rec)
	}
	c.started = c.now()
	return c, nil
}

// expire returns every overdue lease to the pool. Callers hold c.mu.
func (c *Coordinator) expire() {
	now := c.now()
	for _, k := range c.keysInOrder() {
		e := c.entries[k]
		if e.state == stateLeased && e.deadline.Before(now) {
			e.state = statePending
		}
	}
}

// keysInOrder iterates entries in flattened-job order. Callers hold c.mu.
func (c *Coordinator) keysInOrder() []string {
	keys := make([]string, len(c.jobs))
	for i, j := range c.jobs {
		keys[i] = j.Key().String()
	}
	return keys
}

// Lease claims up to max pending jobs for worker, in flattened-list
// order, stamping each with the lease deadline. An empty batch means
// nothing is pending right now: either the sweep is done (sweepDone true)
// or every remaining job is leased to someone else — poll again, a lease
// may expire.
func (c *Coordinator) Lease(worker string, max int) (batch []runner.Job, sweepDone bool) {
	if max <= 0 {
		max = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[worker] = c.now()
	c.expire()
	deadline := c.now().Add(c.leaseTimeout)
	for _, k := range c.keysInOrder() {
		if len(batch) == max {
			break
		}
		e := c.entries[k]
		if e.state != statePending {
			continue
		}
		e.state = stateLeased
		e.worker = worker
		e.deadline = deadline
		batch = append(batch, e.job)
	}
	return batch, c.done == len(c.jobs)
}

// IngestSummary reports what one record batch amounted to.
type IngestSummary struct {
	// Accepted records completed a job (and reached the checkpoint).
	Accepted int `json:"accepted"`
	// Duplicate records re-acknowledged an already-done key — a re-leased
	// trial both holders completed, a worker retrying a batch the
	// coordinator already took. Dropped: determinism makes them copies.
	Duplicate int `json:"duplicate"`
	// Unknown records match no job of this sweep (wrong coordinator, a
	// differently seeded worker). Rejected, never checkpointed.
	Unknown int `json:"unknown"`
}

// Ingest validates and accepts a batch of trial records. A record whose
// identity key matches a non-done job completes it — whether the job is
// leased to the sender, leased to someone else, pending again after the
// sender's lease expired, or was never leased at all; arrival beats
// bookkeeping, because a record's bytes are fully determined by its key.
// Each accepted record is appended to the checkpoint before the job is
// marked done, so a checkpoint write error leaves the unwritten jobs
// re-leasable and the file salvageable.
func (c *Coordinator) Ingest(recs []runner.Record) (IngestSummary, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s IngestSummary
	for _, rec := range recs {
		e, ok := c.entries[rec.Key().String()]
		if !ok {
			s.Unknown++
			continue
		}
		if e.state == stateDone {
			s.Duplicate++
			continue
		}
		if c.checkpoint != nil {
			if err := c.checkpoint.Encode(rec); err != nil {
				return s, fmt.Errorf("checkpoint: %w", err)
			}
		}
		e.state = stateDone
		c.done++
		c.accepted = append(c.accepted, rec)
		s.Accepted++
	}
	if s.Accepted > 0 && c.flush != nil {
		if err := c.flush(); err != nil {
			return s, fmt.Errorf("checkpoint: %w", err)
		}
	}
	return s, nil
}

// Status is a live progress snapshot.
type Status struct {
	Total   int `json:"total"`
	Done    int `json:"done"`
	Leased  int `json:"leased"`
	Pending int `json:"pending"`
	// Foreign counts salvaged checkpoint records matching no job of this
	// sweep (resumed with different flags than the file was written
	// with); they stay in the checkpoint and the reports, so nonzero
	// means the output mixes sweeps.
	Foreign    int     `json:"foreign,omitempty"`
	Workers    int     `json:"workers"`
	ElapsedSec float64 `json:"elapsed_sec"`
	SweepDone  bool    `json:"sweep_done"`
}

// Status reports progress after expiring overdue leases.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expire()
	s := Status{
		Total:      len(c.jobs),
		Done:       c.done,
		Foreign:    c.foreign,
		Workers:    len(c.workers),
		ElapsedSec: c.now().Sub(c.started).Seconds(),
		SweepDone:  c.done == len(c.jobs),
	}
	for _, e := range c.entries {
		if e.state == stateLeased {
			s.Leased++
		}
	}
	s.Pending = s.Total - s.Done - s.Leased
	return s
}

// Records returns the accepted records (salvaged first, then ingested, in
// acceptance order) — the same set the checkpoint file holds.
func (c *Coordinator) Records() []runner.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]runner.Record(nil), c.accepted...)
}

// Report renders the named analysis over the records accepted so far,
// through the same merge entry point and renderer as cmd/slranalyze — so a
// finished sweep's report is byte-identical to running slranalyze over
// the checkpoint, and to the single-process sweep's own output. "trials"
// (the default) groups by (protocol, pause) with no grid geometry; the
// grid views need the coordinator to have been built with a Scale.
func (c *Coordinator) Report(kind string) (string, error) {
	if kind == "" {
		kind = "trials"
	}
	rep, err := experiments.MergeRecords(c.Records()).Render(kind, c.scale, nil)
	if err != nil {
		return "", err
	}
	if len(rep.Leftover) > 0 {
		return fmt.Sprintf("warning: %d records match no %s-scale pause time; analyzing the rest\n%s",
			len(rep.Leftover), c.scale.Name, rep.Text), nil
	}
	return rep.Text, nil
}
