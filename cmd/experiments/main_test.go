package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slr/internal/experiments"
	"slr/internal/runner"
)

func TestRunRejectsUnknownScale(t *testing.T) {
	err := run([]string{"-scale", "galactic"})
	if err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunRejectsUnknownExperiment: -exp takes the shared report
// vocabulary — percentiles and shape included, like slranalyze -report —
// and refuses anything else before sweeping.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	err := run([]string{"-exp", "fig99"})
	if err == nil || !strings.Contains(err.Error(), `-exp: unknown report "fig99"`) {
		t.Fatalf("err = %v", err)
	}
	// An accepted name gets past -exp to the next refusal (no sweep runs).
	for _, exp := range []string{"percentiles", "shape", "fig7", "trials"} {
		err := run([]string{"-exp", exp, "-scale", "galactic"})
		if err == nil || !strings.Contains(err.Error(), "unknown scale") {
			t.Errorf("-exp %s: err = %v, want the -scale refusal", exp, err)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-zap"}); err == nil {
		t.Fatal("bad flag accepted")
	}
	// There is no whole-grid JSON dump: -jsonl streams the records.
	if err := run([]string{"-json", "x"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -json") {
		t.Fatalf("-json: err = %v", err)
	}
}

func TestRunSpecMode(t *testing.T) {
	if err := run([]string{"-spec", "../../examples/scenarios/tiny-smoke.json", "-quiet"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSpecModeUnknown(t *testing.T) {
	if err := run([]string{"-spec", "no-such-spec"}); err == nil {
		t.Fatal("unknown spec accepted")
	}
}

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{"-resume"}); err == nil || !strings.Contains(err.Error(), "-jsonl") {
		t.Errorf("-resume without -jsonl: %v", err)
	}
	if err := run([]string{"-resume", "-jsonl", "x.jsonl", "-csv", "y.csv"}); err == nil || !strings.Contains(err.Error(), "CSV") {
		t.Errorf("-resume with -csv: %v", err)
	}
	if err := run([]string{"-shard", "5/4"}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := run([]string{"-shard", "2"}); err == nil {
		t.Error("malformed shard accepted")
	}
	if err := run([]string{"-pparam", "ttl_0=30"}); err == nil || !strings.Contains(err.Error(), "-pparam requires -spec") {
		t.Errorf("-pparam on the grid: %v", err)
	}
	if err := run([]string{"-trials", "-1"}); err == nil || !strings.Contains(err.Error(), "-trials") {
		t.Errorf("negative -trials: %v", err)
	}
}

// TestRunRefusesToClobber pins the os.Create satellite fix: pointing
// -jsonl or -csv at an existing sweep's output must fail before anything
// runs, leaving the file untouched, unless -resume or -force.
func TestRunRefusesToClobber(t *testing.T) {
	dir := t.TempDir()
	for _, flag := range []string{"-jsonl", "-csv"} {
		path := filepath.Join(dir, "sweep"+flag+".out")
		if err := os.WriteFile(path, []byte("40 hours of CPU\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-scale", "small", flag, path})
		if err == nil || !strings.Contains(err.Error(), "-force") {
			t.Fatalf("%s clobber: err = %v, want refusal mentioning -force", flag, err)
		}
		if got, _ := os.ReadFile(path); string(got) != "40 hours of CPU\n" {
			t.Fatalf("%s refusal still modified the file: %q", flag, got)
		}
	}
}

// TestRunSpecShardAndResume drives the spec path end to end: two shards'
// JSONL concatenates to the single-process stream, a truncated file
// resumes to the same bytes, a truncated shard resumes to its own bytes,
// and a plain re-run refuses to clobber. The stream, analyzed as
// slranalyze -report trials analyzes it, prints
// testdata/tiny-smoke-analyze.golden; every later stream equals it byte
// for byte, so the shard unions and resumes print the golden too.
func TestRunSpecShardAndResume(t *testing.T) {
	const spec = "../../examples/scenarios/tiny-smoke.json"
	dir := t.TempDir()
	base := []string{"-spec", spec, "-trials", "2", "-quiet", "-workers", "1"}

	full := filepath.Join(dir, "full.jsonl")
	if err := run(append(base, "-jsonl", full)); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(golden, []byte("\n")) != 2 {
		t.Fatalf("expected 2 records:\n%s", golden)
	}
	recs, err := runner.ReadRecords(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	const analysis = "../../testdata/tiny-smoke-analyze.golden"
	want, err := os.ReadFile(analysis)
	if err != nil {
		t.Fatal(err)
	}
	if got := experiments.MergeRecords(recs).TrialsReport(""); got != string(want) {
		t.Fatalf("%s drifted:\n--- got ---\n%s--- want ---\n%s", analysis, got, want)
	}

	// Clobber guard, and -force to override it.
	if err := run(append(base, "-jsonl", full)); err == nil {
		t.Fatal("re-run clobbered the existing JSONL")
	}
	if err := run(append(base, "-jsonl", full, "-force")); err != nil {
		t.Fatalf("-force: %v", err)
	}

	// Sharding: with one worker each, shard 1/2 gets trial 0 and shard
	// 2/2 trial 1, so their concatenation is the single-process stream.
	s1, s2 := filepath.Join(dir, "s1.jsonl"), filepath.Join(dir, "s2.jsonl")
	if err := run(append(base, "-shard", "1/2", "-jsonl", s1)); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-shard", "2/2", "-jsonl", s2)); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(s1)
	b2, _ := os.ReadFile(s2)
	if !bytes.Equal(append(b1, b2...), golden) {
		t.Fatalf("shard union differs from single process:\n--- shards ---\n%s%s--- single ---\n%s", b1, b2, golden)
	}

	// Kill mid-write: keep the first record plus half the second, resume,
	// and require convergence to the uninterrupted bytes.
	cut := bytes.IndexByte(golden, '\n') + 1
	trunc := filepath.Join(dir, "trunc.jsonl")
	if err := os.WriteFile(trunc, golden[:cut+10], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-resume", "-jsonl", trunc)); err != nil {
		t.Fatal(err)
	}
	resumed, _ := os.ReadFile(trunc)
	if !bytes.Equal(resumed, golden) {
		t.Fatalf("resume did not converge:\n--- resumed ---\n%s--- golden ---\n%s", resumed, golden)
	}

	// A lost shard host: shard 2/2 dies inside its last record, and the
	// same shard re-run with -resume completes it, so the shards again
	// concatenate to the single-process stream.
	if err := os.WriteFile(s2, b2[:len(b2)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-shard", "2/2", "-resume", "-jsonl", s2)); err != nil {
		t.Fatal(err)
	}
	b2, _ = os.ReadFile(s2)
	if !bytes.Equal(append(b1, b2...), golden) {
		t.Fatalf("resumed shard union differs from single process:\n--- shards ---\n%s%s--- single ---\n%s", b1, b2, golden)
	}
}
