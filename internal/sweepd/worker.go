package sweepd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"slr/internal/runner"
)

// Worker is the pulling client side of sweep-as-a-service: it leases job
// batches from a coordinator, runs each batch's trials on the
// runner (all local CPUs), and POSTs the resulting records
// back with retry and exponential backoff. Losing a worker loses nothing:
// whatever it leased but never acknowledged returns to the pool when the
// lease expires, and whatever it acknowledged twice (a retried POST, a
// re-leased trial) the coordinator dedups.
type Worker struct {
	// URL is the coordinator's base URL, e.g. "http://host:8356".
	URL string
	// ID identifies this worker to the coordinator.
	ID string
	// Batch is the job count requested per lease; 0 means 1. The
	// coordinator's lease timeout must exceed a batch's wall-clock time,
	// so size batches for minutes, not hours.
	Batch int
	// Workers is the runner's worker-goroutine count per batch; 0 means
	// GOMAXPROCS.
	Workers int
	// Poll is how long to wait when nothing is pending but the sweep is
	// not done (everything is leased elsewhere); 0 means 2 s.
	Poll time.Duration
	// Retries caps how often a failing request is retried before the
	// worker gives up; 0 means 5.
	Retries int
	// Backoff is the first retry's delay, doubling per attempt; 0 means
	// 500 ms.
	Backoff time.Duration
	// Client is the HTTP client; nil means http.DefaultClient.
	Client *http.Client
	// Progress receives one line per batch; nil is silent.
	Progress io.Writer
	// OnLease, if set, observes every non-empty leased batch before it
	// runs; returning an error abandons the batch without acknowledgment
	// and stops the worker — the hook crash tests use to die
	// mid-sweep like kill -9 would.
	OnLease func([]runner.Job) error
}

// Run pulls and executes batches until the coordinator reports the sweep
// done (returns nil) or a request exhausts its retries.
func (w *Worker) Run() error {
	poll := w.Poll
	if poll <= 0 {
		poll = 2 * time.Second
	}
	for {
		resp, err := w.lease()
		if err != nil {
			return err
		}
		if len(resp.Jobs) == 0 {
			if resp.SweepDone {
				return nil
			}
			time.Sleep(poll)
			continue
		}
		if w.OnLease != nil {
			if err := w.OnLease(resp.Jobs); err != nil {
				return err
			}
		}
		start := time.Now()
		results, runErr := runner.Run(resp.Jobs, runner.Options{Workers: w.Workers})
		if runErr != nil {
			// No emitters are attached, so this cannot happen today; guard
			// anyway rather than acknowledge a batch that did not finish.
			return fmt.Errorf("running leased batch: %w", runErr)
		}
		var body bytes.Buffer
		enc := json.NewEncoder(&body)
		for i, j := range resp.Jobs {
			if err := enc.Encode(runner.NewRecord(j, results[i])); err != nil {
				return err
			}
		}
		sum, err := w.post(body.Bytes())
		if err != nil {
			return err
		}
		if w.Progress != nil {
			fmt.Fprintf(w.Progress, "%s: batch of %d done in %v (accepted %d, dup %d)\n",
				w.ID, len(resp.Jobs), time.Since(start).Round(time.Millisecond),
				sum.Accepted, sum.Duplicate)
		}
	}
}

// lease requests one batch, retrying transient failures.
func (w *Worker) lease() (*LeaseResponse, error) {
	blob, err := json.Marshal(LeaseRequest{Worker: w.ID, Max: w.Batch})
	if err != nil {
		return nil, err
	}
	var resp LeaseResponse
	err = w.retry("lease", func() error {
		r, err := w.client().Post(strings.TrimSuffix(w.URL, "/")+PathLease,
			"application/json", bytes.NewReader(blob))
		if err != nil {
			return err
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			return httpError(r)
		}
		resp = LeaseResponse{}
		return json.NewDecoder(r.Body).Decode(&resp)
	})
	if err != nil {
		return nil, err
	}
	return &resp, nil
}

// post acknowledges one batch's records, retrying transient failures. A
// retry after a half-landed POST is safe: the coordinator dedups on the
// identity key, so the records land exactly once.
func (w *Worker) post(jsonl []byte) (IngestSummary, error) {
	var resp IngestResponse
	err := w.retry("post records", func() error {
		r, err := w.client().Post(strings.TrimSuffix(w.URL, "/")+PathRecords,
			"application/x-ndjson", bytes.NewReader(jsonl))
		if err != nil {
			return err
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			return httpError(r)
		}
		resp = IngestResponse{}
		return json.NewDecoder(r.Body).Decode(&resp)
	})
	return resp.IngestSummary, err
}

// retry runs fn up to 1+Retries times with exponential backoff.
func (w *Worker) retry(what string, fn func() error) error {
	retries := w.Retries
	if retries <= 0 {
		retries = 5
	}
	backoff := w.Backoff
	if backoff <= 0 {
		backoff = 500 * time.Millisecond
	}
	var err error
	for attempt := 0; ; attempt++ {
		if err = fn(); err == nil {
			return nil
		}
		if attempt == retries {
			return fmt.Errorf("%s: %w (after %d retries)", what, err, retries)
		}
		if w.Progress != nil {
			fmt.Fprintf(w.Progress, "%s: %s failed (%v), retrying in %v\n", w.ID, what, err, backoff)
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// client returns the HTTP client.
func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return http.DefaultClient
}

// httpError turns a non-200 response into an error carrying the body's
// first line (the server's message).
func httpError(r *http.Response) error {
	blob, _ := io.ReadAll(io.LimitReader(r.Body, 512))
	msg := strings.TrimSpace(string(blob))
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	return fmt.Errorf("%s: %s", r.Status, msg)
}
