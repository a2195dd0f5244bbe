package sweepd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"slr/internal/runner"
)

// The /v1 wire format. Versioned JSON whose payloads are exactly the
// runner types: a leased job is a runner.Job (fully seeded
// scenario.Params included — every field is plain data, so the JSON round
// trip is lossless and the worker runs bit-identical trials), and an
// acknowledged result is a runner.Record, one JSON line per record, the
// same schema the -jsonl emitters write. There is no parallel schema to
// drift.
//
//	POST /v1/lease    LeaseRequest  -> LeaseResponse
//	POST /v1/records  JSONL body    -> IngestResponse
//	GET  /v1/status                 -> Status
//	GET  /v1/report?report=<kind>   -> text/plain analysis
const (
	PathLease   = "/v1/lease"
	PathRecords = "/v1/records"
	PathStatus  = "/v1/status"
	PathReport  = "/v1/report"
)

// Request body caps. A body past its cap is refused whole with 413 and
// leaves the coordinator untouched, so no client can make the daemon
// buffer without bound.
const (
	// maxLeaseBody bounds a LeaseRequest: a worker id and a count.
	maxLeaseBody = 4 << 10
	// maxRecordsBody bounds one record batch. A record line is a few KB
	// (hop and latency histograms included), so this is thousands of
	// trials per POST — far past any batch a lease timeout allows.
	maxRecordsBody = 64 << 20
)

// LeaseRequest asks for a batch of jobs.
type LeaseRequest struct {
	// Worker identifies the puller (for status and lease bookkeeping);
	// any stable non-empty string.
	Worker string `json:"worker"`
	// Max caps the batch size; 0 means 1.
	Max int `json:"max"`
}

// LeaseResponse carries the leased batch.
type LeaseResponse struct {
	// Jobs is the leased batch, possibly empty. Each job's canonical
	// identity key (runner.Key.String of its coordinates) is what the
	// coordinator expects a record back for.
	Jobs []runner.Job `json:"jobs"`
	// Keys are the jobs' canonical identity keys, index-aligned with
	// Jobs — informational (logging, tracing); the coordinator re-derives
	// keys from the records themselves.
	Keys []string `json:"keys,omitempty"`
	// LeaseTimeoutSec is how long the worker has to acknowledge the batch
	// before it returns to the pool.
	LeaseTimeoutSec float64 `json:"lease_timeout_sec"`
	// SweepDone reports that every job is done: an idle worker should
	// exit. An empty batch without SweepDone means everything pending is
	// leased elsewhere — poll again, a lease may expire.
	SweepDone bool `json:"sweep_done"`
}

// IngestResponse reports what a POSTed record batch amounted to.
type IngestResponse struct {
	IngestSummary
	// Error describes body damage (a record batch cut off mid-line); the
	// complete records before the damage were ingested anyway.
	Error string `json:"error,omitempty"`
}

// NewHandler wraps the coordinator in its /v1 HTTP surface.
func NewHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathLease, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req LeaseRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxLeaseBody)).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("bad lease request: %v", err), bodyErrStatus(err))
			return
		}
		if req.Worker == "" {
			http.Error(w, "lease request needs a worker id", http.StatusBadRequest)
			return
		}
		jobs, done := c.Lease(req.Worker, req.Max)
		resp := LeaseResponse{
			Jobs:            jobs,
			LeaseTimeoutSec: c.leaseTimeout.Seconds(),
			SweepDone:       done,
		}
		for _, j := range jobs {
			resp.Keys = append(resp.Keys, j.Key().String())
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc(PathRecords, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		// The body is JSONL — the exact bytes a -jsonl emitter writes —
		// validated with the same salvage rules as every other reader: a
		// batch cut off mid-line (a worker dying mid-POST) contributes its
		// complete records; a line that is no record at all is foreign.
		recs, _, serr := runner.SalvageRecords(http.MaxBytesReader(w, r.Body, maxRecordsBody))
		if bodyErrStatus(serr) == http.StatusRequestEntityTooLarge {
			// Not salvaged like a cut-off batch: the sender is misbehaving,
			// and its jobs simply stay leased until the lease expires.
			http.Error(w, fmt.Sprintf("record batch refused: %v", serr), http.StatusRequestEntityTooLarge)
			return
		}
		sum, err := c.Ingest(recs)
		if err != nil {
			// A checkpoint write failure is the coordinator's problem, not
			// the batch's: the un-checkpointed jobs stay re-leasable and the
			// worker should retry.
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		resp := IngestResponse{IngestSummary: sum}
		status := http.StatusOK
		if serr != nil {
			resp.Error = serr.Error()
			status = http.StatusBadRequest
		}
		writeJSON(w, status, resp)
	})
	mux.HandleFunc(PathStatus, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, http.StatusOK, c.Status())
	})
	mux.HandleFunc(PathReport, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		text, err := c.Report(r.URL.Query().Get("report"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, text)
	})
	return mux
}

// bodyErrStatus maps a request-body read or decode error to its status:
// 413 when the body ran past its MaxBytesReader cap, 400 otherwise.
func bodyErrStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writeJSON encodes one response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
