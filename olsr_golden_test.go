// Per-seed byte-identity pin for OLSR's JSONL output. The OLSR recompute
// path is the repo's profiled hot spot and gets restructured for large N;
// any behavioral drift there (BFS tie-breaks, MPR selection, expiry
// handling) would silently change every OLSR result. This test freezes the
// full record stream — metrics, histograms, drop reasons — for a small
// sweep across the mobility extremes, so optimizations must prove
// themselves byte-identical per seed.
//
// Regenerate (only for a documented behavior change, like the PR 3
// queue-full rename): go test -run TestOLSRGoldenJSONL -update .
package slr_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"slr/internal/experiments"
	"slr/internal/runner"
	"slr/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite golden files")

const olsrGolden = "testdata/olsr-small.golden.jsonl"

func TestOLSRGoldenJSONL(t *testing.T) {
	// The mobility extremes stress different recompute paths: pause 0
	// (constant motion, link churn on every hello round) and full pause
	// (static topology, where the expiry-horizon skip should carry the
	// whole steady state).
	var jobs []runner.Job
	for _, pauseFrac := range []float64{0, 1} {
		p := experiments.Small.Params(scenario.OLSR, pauseFrac, 1)
		for _, j := range runner.TrialJobs(p, 2) {
			j.Index = len(jobs)
			j.PauseFrac = pauseFrac
			jobs = append(jobs, j)
		}
	}
	checkGolden(t, olsrGolden, jobs)
}

// checkGolden runs jobs in order on one worker and compares their JSONL
// with the committed golden file at path, naming the first differing line;
// under -update it rewrites the file instead.
func checkGolden(t *testing.T, path string, jobs []runner.Job) {
	t.Helper()
	var buf bytes.Buffer
	em := runner.NewJSONL(&buf)
	if _, err := runner.Run(jobs, runner.Options{Workers: 1, Emitters: []runner.Emitter{em}}); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s: JSONL drifted from golden at line %d:\ngot:  %.200s\nwant: %.200s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: JSONL drifted from golden: got %d lines, want %d", path, len(gl), len(wl))
}
