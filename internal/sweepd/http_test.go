package sweepd

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"slr/internal/experiments"
	"slr/internal/runner"
	"slr/internal/scenario"
)

// TestServiceMatchesSerialRun is the acceptance test for the whole
// service: a coordinator and two real workers over HTTP, one worker
// killed mid-sweep after leasing a batch it never acknowledges. After the
// lease expires the survivor finishes, and the coordinator's merged
// analysis and checkpointed record set are byte-identical to a serial
// single-process run of the same job list.
func TestServiceMatchesSerialRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	jobs := runner.TrialJobs(tinyParams(scenario.SRP, 1), 3)

	// Serial reference: the single-process sweep and its analysis.
	results, err := runner.Run(jobs, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	serial := make([]runner.Record, len(jobs))
	for i, j := range jobs {
		serial[i] = runner.NewRecord(j, results[i])
	}
	serialReport := experiments.MergeRecords(serial).TrialsReport("")

	// The service: short lease timeout so the killed worker's batch
	// returns to the pool within the test's lifetime.
	path := filepath.Join(t.TempDir(), "checkpoint.jsonl")
	ck, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	c, err := New(jobs, Options{LeaseTimeout: 250 * time.Millisecond, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()

	crashed := errors.New("kill -9")
	var wg sync.WaitGroup
	wg.Add(2)
	var victimErr, survivorErr error
	go func() {
		defer wg.Done()
		victim := &Worker{URL: srv.URL, ID: "victim", Batch: 1,
			OnLease: func([]runner.Job) error { return crashed }}
		victimErr = victim.Run()
	}()
	go func() {
		defer wg.Done()
		// The survivor starts after the victim has leased, and polls fast
		// enough to pick the batch up once the lease expires.
		time.Sleep(50 * time.Millisecond)
		survivor := &Worker{URL: srv.URL, ID: "survivor", Batch: 2,
			Poll: 50 * time.Millisecond, Backoff: 10 * time.Millisecond}
		survivorErr = survivor.Run()
	}()
	wg.Wait()
	if !errors.Is(victimErr, crashed) {
		t.Fatalf("victim exited with %v, want its crash", victimErr)
	}
	if survivorErr != nil {
		t.Fatalf("survivor: %v", survivorErr)
	}

	st := c.Status()
	if !st.SweepDone || st.Done != len(jobs) {
		t.Fatalf("sweep not done: %+v", st)
	}

	// The live report is byte-identical to the serial analysis.
	resp, err := http.Get(srv.URL + PathReport + "?report=trials")
	if err != nil {
		t.Fatal(err)
	}
	report, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(report) != serialReport {
		t.Fatalf("service report diverged from serial:\n--- serial ---\n%s--- service ---\n%s",
			serialReport, report)
	}

	// The checkpoint holds exactly the serial record set — same bytes per
	// record, deduped.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ckRecs, err := runner.ReadRecords(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	deduped, _ := runner.DedupRecords(ckRecs)
	if !equalStrings(recordSet(t, deduped), recordSet(t, serial)) {
		t.Fatal("checkpoint record set diverged from serial run")
	}
}

// TestHandlerSurface pins the /v1 endpoints' method checks, validation,
// and payload shapes without running simulations.
func TestHandlerSurface(t *testing.T) {
	jobs := testJobs(t, 2)
	c, err := New(jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(c))
	defer srv.Close()

	// Method checks.
	for path, badMethod := range map[string]string{
		PathLease:   http.MethodGet,
		PathRecords: http.MethodGet,
		PathStatus:  http.MethodPost,
		PathReport:  http.MethodPost,
	} {
		req, _ := http.NewRequest(badMethod, srv.URL+path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: %d, want 405", badMethod, path, resp.StatusCode)
		}
	}

	// A lease without a worker id is refused.
	resp, err := http.Post(srv.URL+PathLease, "application/json", strings.NewReader(`{"max":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("anonymous lease: %d, want 400", resp.StatusCode)
	}

	// A real lease carries the job and its canonical key, and the job
	// round-trips losslessly: its re-marshaled key matches.
	resp, err = http.Post(srv.URL+PathLease, "application/json",
		strings.NewReader(`{"worker":"w1","max":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var lr LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(lr.Jobs) != 1 || len(lr.Keys) != 1 || lr.SweepDone {
		t.Fatalf("lease response: %+v", lr)
	}
	if got := lr.Jobs[0].Key().String(); got != lr.Keys[0] {
		t.Errorf("decoded job key %q != advertised key %q", got, lr.Keys[0])
	}
	if !reflect.DeepEqual(lr.Jobs[0].Params, jobs[0].Params) {
		t.Error("leased params did not survive the JSON round trip")
	}

	// Records: a batch cut off mid-line lands its complete records and
	// reports the damage with a 400.
	var line bytes.Buffer
	if err := json.NewEncoder(&line).Encode(fakeRecord(lr.Jobs[0])); err != nil {
		t.Fatal(err)
	}
	line.WriteString(`{"protocol":"SRP","pa`)
	resp, err = http.Post(srv.URL+PathRecords, "application/x-ndjson", &line)
	if err != nil {
		t.Fatal(err)
	}
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || ir.Accepted != 1 || ir.Error == "" {
		t.Fatalf("torn batch: status %d, %+v", resp.StatusCode, ir)
	}

	// Status reflects the completion.
	resp, err = http.Get(srv.URL + PathStatus)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Done != 1 || st.Total != 2 || st.Workers != 1 {
		t.Fatalf("status: %+v", st)
	}

	// An unknown report kind is a 400; trials works without a Scale.
	resp, err = http.Get(srv.URL + PathReport + "?report=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown report: %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + PathReport + "?report=table1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("grid report on a scale-less coordinator: %d, want 400", resp.StatusCode)
	}
}

// blankLines is an endless stream of whitespace-only JSONL lines, which
// SalvageRecords skips: padding that is valid right up to the body cap.
type blankLines struct{}

func (blankLines) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	p[len(p)-1] = '\n'
	return len(p), nil
}

// TestOversizedBodiesRefused pins the /v1 body caps: a lease request or a
// record batch past its cap gets a 413 and changes nothing — not even the
// acceptable record at the front of the oversized batch is ingested.
func TestOversizedBodiesRefused(t *testing.T) {
	jobs := testJobs(t, 2)
	c, err := New(jobs, Options{Now: newFakeClock().Now})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(c)
	leased, _ := c.Lease("w1", 1)
	before := c.Status()

	var batch bytes.Buffer
	if err := json.NewEncoder(&batch).Encode(fakeRecord(leased[0])); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, path string
		body       io.Reader
	}{
		{"lease", PathLease, strings.NewReader(`{"worker":"w2","max":1,"pad":"` + strings.Repeat("x", maxLeaseBody) + `"}`)},
		{"records", PathRecords, io.MultiReader(&batch, io.LimitReader(blankLines{}, maxRecordsBody))},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, tc.body))
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized %s body: status %d, want 413 (%s)", tc.name, rec.Code, rec.Body)
		}
		if after := c.Status(); after != before {
			t.Errorf("oversized %s body changed the coordinator: %+v -> %+v", tc.name, before, after)
		}
	}
}
