package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/runner"
	"slr/internal/scenario"
	"slr/internal/sweepd"
	"slr/internal/traffic"
)

// TestFlagValidation pins the refusals that must fire before the
// checkpoint file is touched.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{}, "-jsonl is required"},
		{[]string{"-jsonl", "x.jsonl", "-resume", "-scale", "nope"}, "scale"},
		{[]string{"-jsonl", "x.jsonl", "-pparam", "ttl_0=30"}, "-pparam requires -spec"},
		{[]string{"-jsonl", "x.jsonl", "-spec", "no-such-spec"}, "no-such-spec"},
		{[]string{"-resume"}, "-resume needs -jsonl"},
		{[]string{"-jsonl", "x.jsonl", "wroker"}, `unexpected argument "wroker"`},
		{[]string{"worker"}, "-url is required"},
		{[]string{"worker", "-url", "http://127.0.0.1:1", "extra"}, `unexpected argument "extra"`},
	}
	for _, c := range cases {
		err := run(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("run(%v) = %v, want error containing %q", c.args, err, c.want)
		}
	}
}

// TestWorkerModeFlagTable: the worker subcommand has its own FlagSet, so
// every scenario, checker and output flag is refused by name by the flag
// package itself — jobs arrive fully parameterized from the coordinator,
// and no allowlist has to be kept in step with the coordinator's flags.
func TestWorkerModeFlagTable(t *testing.T) {
	for name, extra := range map[string][]string{
		"check":      {"-check"},
		"ordercheck": {"-ordercheck"},
		"protocol":   {"-protocol", "AODV"},
		"trials":     {"-trials", "2"},
		"jsonl":      {"-jsonl", "x.jsonl"},
		"seed":       {"-seed", "7"},
		"nodes":      {"-nodes", "5"},
	} {
		t.Run(name, func(t *testing.T) {
			args := append([]string{"worker", "-url", "http://127.0.0.1:1"}, extra...)
			want := "flag provided but not defined: " + extra[0]
			if err := run(args); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("run(%v) = %v, want %q", args, err, want)
			}
		})
	}
}

// TestWorkerModeDrainsCoordinator runs the real worker subcommand against
// an in-process coordinator and checks the sweep completes.
func TestWorkerModeDrainsCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	p := scenario.DefaultParams(scenario.SRP, 0, 1)
	p.Nodes = 10
	p.Terrain = geo.Terrain{Width: 500, Height: 250}
	p.Duration = 5 * time.Second
	p.Traffic = traffic.Params{Flows: 2, PacketSize: 256, Rate: 4, MeanLife: 10 * time.Second}
	c, err := sweepd.New(runner.TrialJobs(p, 2), sweepd.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sweepd.NewHandler(c))
	defer srv.Close()
	if err := run([]string{"worker", "-url", srv.URL, "-id", "t", "-batch", "2"}); err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); !st.SweepDone {
		t.Fatalf("sweep not done after worker exit: %+v", st)
	}
}

// TestServeTinySpec boots the real daemon on a loopback port with the
// tiny-smoke spec, drains it with two workers — one crashing after its
// first lease, exercising lease expiry end to end through the CLI — and
// diffs the /v1/report bytes against the checked-in analyzer golden, the
// same bytes the single-process CI pipeline produces.
func TestServeTinySpec(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	golden, err := os.ReadFile("../../testdata/tiny-smoke-analyze.golden")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "checkpoint.jsonl")
	addrCh := make(chan net.Addr, 1)
	onListen = func(a net.Addr) { addrCh <- a }
	defer func() { onListen = nil }()
	go func() {
		err := run([]string{
			"-addr", "127.0.0.1:0",
			"-spec", "../../examples/scenarios/tiny-smoke.json",
			"-trials", "2", "-lease", "250ms", "-jsonl", path,
		})
		if err != nil {
			t.Errorf("daemon: %v", err)
		}
	}()
	var addr net.Addr
	select {
	case addr = <-addrCh:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never came up")
	}
	url := "http://" + addr.String()

	// Worker one leases a batch and dies without acknowledging (the
	// in-process stand-in for -crash-after-lease's exit 137); worker two
	// outlives the lease and finishes everything.
	crashed := errors.New("kill -9")
	victim := &sweepd.Worker{URL: url, ID: "victim", Batch: 1,
		OnLease: func([]runner.Job) error { return crashed }}
	if err := victim.Run(); !errors.Is(err, crashed) {
		t.Fatalf("victim exited with %v, want its crash", err)
	}
	survivor := &sweepd.Worker{URL: url, ID: "survivor", Batch: 2,
		Poll: 50 * time.Millisecond, Backoff: 10 * time.Millisecond}
	if err := survivor.Run(); err != nil {
		t.Fatalf("survivor: %v", err)
	}

	resp, err := http.Get(url + sweepd.PathReport + "?report=trials")
	if err != nil {
		t.Fatal(err)
	}
	report, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(report) != string(golden) {
		t.Fatalf("daemon report diverged from the golden:\n--- golden ---\n%s--- daemon ---\n%s",
			golden, report)
	}

	// The checkpoint file feeds slranalyze to the identical bytes: it is
	// the same merge entry point; just confirm the records parse and
	// cover the sweep.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := runner.ReadRecords(f)
	if err != nil {
		t.Fatal(err)
	}
	if deduped, _ := runner.DedupRecords(recs); len(deduped) != 2 {
		t.Fatalf("checkpoint covers %d trials, want 2", len(deduped))
	}
}
