package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slr/internal/runner"
)

func TestRunSmallScenario(t *testing.T) {
	err := run([]string{
		"-protocol", "SRP", "-nodes", "12", "-width", "600", "-height", "300",
		"-duration", "10s", "-flows", "3", "-seed", "1", "-check",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsUnknownProtocol(t *testing.T) {
	err := run([]string{"-protocol", "RIP"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunLowercaseProtocol(t *testing.T) {
	err := run([]string{
		"-protocol", "olsr", "-nodes", "6", "-width", "400", "-height", "200",
		"-duration", "5s", "-flows", "2",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunMultiTrial(t *testing.T) {
	err := run([]string{
		"-protocol", "AODV", "-nodes", "8", "-width", "500", "-height", "250",
		"-duration", "5s", "-flows", "2", "-trials", "2",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunSpecFile(t *testing.T) {
	if err := run([]string{"-spec", "../../examples/scenarios/tiny-smoke.json"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunSpecWithFlagOverrides(t *testing.T) {
	// Shrink the built-in paper spec down to test size via explicit flags.
	err := run([]string{
		"-spec", "paper-default", "-nodes", "12", "-width", "600", "-height", "300",
		"-duration", "10s", "-flows", "3", "-trials", "1",
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunSpecUnknown(t *testing.T) {
	if err := run([]string{"-spec", "no-such-spec"}, io.Discard); err == nil {
		t.Fatal("unknown spec accepted")
	}
}

// TestRunJSONL drives the one file output slrsim keeps: -jsonl writes one
// record per trial in trial order (whichever worker finishes first),
// refuses to clobber, and -force overrides that.
func TestRunJSONL(t *testing.T) {
	base := []string{
		"-protocol", "SRP", "-nodes", "8", "-width", "500", "-height", "250",
		"-duration", "5s", "-flows", "2", "-trials", "3", "-seed", "7",
	}
	out := filepath.Join(t.TempDir(), "out.jsonl")
	if err := run(append(base, "-jsonl", out), io.Discard); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := runner.ReadRecords(bytes.NewReader(golden))
	if err != nil || len(recs) != 3 || recs[0].Seed != 7 || recs[1].Seed != 8 || recs[2].Seed != 9 {
		t.Fatalf("want seeds 7, 8, 9 in trial order (err %v):\n%s", err, golden)
	}
	if err := run(append(base, "-jsonl", out), io.Discard); err == nil || !strings.Contains(err.Error(), "-force") {
		t.Fatalf("clobber not refused: %v", err)
	}
	if got, _ := os.ReadFile(out); !bytes.Equal(got, golden) {
		t.Fatal("refused clobber modified the file")
	}
	if err := run(append(base, "-jsonl", out, "-force"), io.Discard); err != nil {
		t.Fatalf("-force: %v", err)
	}
}

// TestRunRejectsUnrunnable: -trials must name at least one trial (a
// negative count used to panic in runner.TrialJobs, zero printed nothing
// and exited 0), and flag values pass the rules the same values in a spec
// file must pass — with or without a -spec baseline under them.
func TestRunRejectsUnrunnable(t *testing.T) {
	const tiny = "../../examples/scenarios/tiny-smoke.json"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-trials", "0"}, "-trials"},
		{[]string{"-trials", "-1"}, "-trials"},
		{[]string{"-spec", tiny, "-trials", "0"}, "-trials"},
		{[]string{"-nodes", "1"}, "nodes 1 must be >= 2"},
		{[]string{"-flows", "0"}, "flows=0"},
		{[]string{"-spec", tiny, "-nodes", "1"}, "nodes 1 must be >= 2"},
		{[]string{"-speed", "-1"}, "speeds"},
		{[]string{"-duration", "0s"}, "duration"},
		// A TTL whose discovery back-off overflows sim.Time is refused
		// before the trial, not a panic in the middle of it.
		{[]string{"-protocol", "AODV", "-pparam", "ttl_0=2e11", "-duration", "1s"}, "ttl_0 200000000000 must be in [1, 255]"},
	} {
		if err := run(tc.args, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error mentioning %q", tc.args, err, tc.want)
		}
	}
}

// TestRunOneJobOnly: slrsim runs one scenario. Sweep slicing and resuming
// live in cmd/experiments, so the flag package itself refuses their flags
// here — there is no allowlist to keep in step.
func TestRunOneJobOnly(t *testing.T) {
	for _, args := range [][]string{
		{"-worker", "http://127.0.0.1:1"},
		{"-shard", "1/2"},
		{"-resume"},
		{"-parallel", "2"},
	} {
		want := "flag provided but not defined: " + args[0]
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("run(%v) = %v, want %q", args, err, want)
		}
	}
}

// TestProfilesWriteBothFiles: -cpuprofile and -memprofile each leave a
// non-empty pprof file once the run returns.
func TestProfilesWriteBothFiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	if err := run([]string{"-spec", "../../examples/scenarios/tiny-smoke.json", "-cpuprofile", cpu, "-memprofile", mem}, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", path, err)
		}
	}
}
