package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"slr/internal/experiments"
	"slr/internal/runner"
	"slr/internal/scenario"
)

func TestRunRejectsUnknownScale(t *testing.T) {
	err := run([]string{"-scale", "galactic"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunRejectsUnknownExperiment: -exp takes the shared report
// vocabulary — percentiles and shape included, like slranalyze -report —
// and refuses anything else before sweeping.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	err := run([]string{"-exp", "fig99"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `-exp: unknown report "fig99"`) {
		t.Fatalf("err = %v", err)
	}
	// An accepted name gets past -exp to the next refusal (no sweep runs).
	for _, exp := range []string{"percentiles", "shape", "fig7", "trials"} {
		err := run([]string{"-exp", exp, "-scale", "galactic"}, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "unknown scale") {
			t.Errorf("-exp %s: err = %v, want the -scale refusal", exp, err)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-zap"}, io.Discard, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
	// There is no whole-grid JSON dump: -jsonl streams the records.
	if err := run([]string{"-json", "x"}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -json") {
		t.Fatalf("-json: err = %v", err)
	}
}

func TestRunSpecMode(t *testing.T) {
	if err := run([]string{"-spec", "../../examples/scenarios/tiny-smoke.json", "-quiet"}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunSpecModeUnknown(t *testing.T) {
	if err := run([]string{"-spec", "no-such-spec"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown spec accepted")
	}
}

func TestRunFlagValidation(t *testing.T) {
	if err := run([]string{"-resume"}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "-jsonl") {
		t.Errorf("-resume without -jsonl: %v", err)
	}
	// A -spec sweep prints only its trials summary, so a grid report
	// asked of it is refused rather than silently ignored.
	for _, exp := range []string{"table1", "fig5", "shape"} {
		err := run([]string{"-spec", "../../examples/scenarios/tiny-smoke.json", "-exp", exp, "-quiet"}, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-exp "+exp) || !strings.Contains(err.Error(), "-spec") {
			t.Errorf("-spec with -exp %s: %v", exp, err)
		}
	}
	if err := run([]string{"-shard", "5/4"}, io.Discard, io.Discard); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if err := run([]string{"-shard", "2"}, io.Discard, io.Discard); err == nil {
		t.Error("malformed shard accepted")
	}
	if err := run([]string{"-pparam", "ttl_0=30"}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "-pparam requires -spec") {
		t.Errorf("-pparam on the grid: %v", err)
	}
	if err := run([]string{"-trials", "-1"}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "-trials") {
		t.Errorf("negative -trials: %v", err)
	}
}

// TestRunRefusesToClobber pins the os.Create satellite fix: pointing
// -jsonl at an existing sweep's output must fail before anything runs,
// leaving the file untouched, unless -resume or -force. A plan that fails
// leaves it untouched even under -force: nothing is opened before the
// flags resolve to a job list.
func TestRunRefusesToClobber(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	if err := os.WriteFile(path, []byte("40 hours of CPU\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-scale", "small", "-jsonl", path}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-force") || !strings.Contains(err.Error(), "(or -resume to continue the sweep)") {
		t.Fatalf("clobber: err = %v, want refusal mentioning -force and -resume", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "40 hours of CPU\n" {
		t.Fatalf("refusal still modified the file: %q", got)
	}
	err = run([]string{"-scale", "galactic", "-force", "-jsonl", path}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown scale") {
		t.Fatalf("-scale galactic -force: err = %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "40 hours of CPU\n" {
		t.Fatalf("a failed plan still truncated the file: %q", got)
	}
}

// TestValidateRules pins the orchestration flag-combination rules:
// -resume needs -jsonl, -resume with -jsonl is a valid combination, no
// orchestration flags at all is valid, and the CSV stream is gone.
// Each accepted case stops at the unknown -scale, before any sweep.
func TestValidateRules(t *testing.T) {
	if err := run([]string{"-resume"}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "-resume needs -jsonl") {
		t.Errorf("-resume without -jsonl: err = %v", err)
	}
	path := filepath.Join(t.TempDir(), "a.jsonl")
	for _, args := range [][]string{
		{"-resume", "-jsonl", path, "-scale", "galactic"},
		{"-scale", "galactic"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "unknown scale") {
			t.Errorf("%v: err = %v, want the -scale refusal", args, err)
		}
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused plan created %s: %v", path, err)
	}
	if err := run([]string{"-resume", "-jsonl", path, "-csv", "a.csv"}, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -csv") {
		t.Errorf("-csv: err = %v", err)
	}
}

// TestOpenClobberGuard checks the -jsonl open: an existing non-empty
// file is refused with runner.ErrWouldClobber and left untouched, and
// -force truncates it so the sweep's records start a fresh stream.
func TestOpenClobberGuard(t *testing.T) {
	const old = "{\"protocol\":\"SRP\"}\n"
	path := filepath.Join(t.TempDir(), "out.jsonl")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-spec", "../../examples/scenarios/tiny-smoke.json", "-trials", "1", "-quiet", "-workers", "1", "-jsonl", path}
	if err := run(args, io.Discard, io.Discard); !errors.Is(err, runner.ErrWouldClobber) {
		t.Fatalf("got %v, want ErrWouldClobber", err)
	}
	if blob, err := os.ReadFile(path); err != nil || string(blob) != old {
		t.Fatalf("refused file was modified: %q, %v", blob, err)
	}
	if err := run(append(args, "-force"), io.Discard, io.Discard); err != nil {
		t.Fatalf("-force: %v", err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.HasPrefix(blob, []byte(old)) || bytes.Count(blob, []byte("\n")) != 1 {
		t.Fatalf("-force left %q; want the old record gone and one fresh record", blob)
	}
	if recs, err := runner.ReadRecords(bytes.NewReader(blob)); err != nil || len(recs) != 1 {
		t.Fatalf("-force output: %d records, %v", len(recs), err)
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
	if err := run(append(base, "-jsonl", full), io.Discard, io.Discard); err != nil {
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
	if err := run(append(base, "-jsonl", full), io.Discard, io.Discard); err == nil {
		t.Fatal("re-run clobbered the existing JSONL")
	}
	if err := run(append(base, "-jsonl", full, "-force"), io.Discard, io.Discard); err != nil {
		t.Fatalf("-force: %v", err)
	}

	// Sharding: with one worker each, shard 1/2 gets trial 0 and shard
	// 2/2 trial 1, so their concatenation is the single-process stream.
	s1, s2 := filepath.Join(dir, "s1.jsonl"), filepath.Join(dir, "s2.jsonl")
	if err := run(append(base, "-shard", "1/2", "-jsonl", s1), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-shard", "2/2", "-jsonl", s2), io.Discard, io.Discard); err != nil {
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
	if err := run(append(base, "-resume", "-jsonl", trunc), io.Discard, io.Discard); err != nil {
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
	if err := run(append(base, "-shard", "2/2", "-resume", "-jsonl", s2), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	b2, _ = os.ReadFile(s2)
	if !bytes.Equal(append(b1, b2...), golden) {
		t.Fatalf("resumed shard union differs from single process:\n--- shards ---\n%s%s--- single ---\n%s", b1, b2, golden)
	}
}

// TestRunFlagSet pins the command's whole flag surface, as -h lists it.
func TestRunFlagSet(t *testing.T) {
	var stderr strings.Builder
	if err := run([]string{"-h"}, io.Discard, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v", err)
	}
	var got []string
	for _, line := range strings.Split(stderr.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(name)[0])
		}
	}
	want := []string{"exp", "force", "jsonl", "pparam", "quiet", "resume", "scale", "seed", "shard", "spec", "trials", "workers"}
	if !slices.Equal(got, want) {
		t.Errorf("flags %v, want %v", got, want)
	}
}

// TestRunResumeAfterShard resumes a spec sweep cut mid-record with trials
// 0 and 2 complete: stderr reports the salvage and the skip, the file and
// the printed summary converge to the uninterrupted run's, and the -shard
// slice applies before the skip filter (shard 1/2 is exactly trials 0 and
// 2, so nothing is left to run).
func TestRunResumeAfterShard(t *testing.T) {
	const tiny = "../../examples/scenarios/tiny-smoke.json"
	dir := t.TempDir()
	base := []string{"-spec", tiny, "-trials", "4", "-quiet", "-workers", "1"}
	full := filepath.Join(dir, "full.jsonl")
	var fullOut strings.Builder
	if err := run(slices.Concat(base, []string{"-jsonl", full}), &fullOut, io.Discard); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(golden, []byte("\n"))
	partial := slices.Concat(lines[0], lines[2], lines[3][:20])

	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "resume: 2 of 4 jobs already complete, running 2\n"},
		{[]string{"-shard", "1/2"}, "resume: 2 of 2 jobs already complete, running 0\n"},
	} {
		path := filepath.Join(dir, "partial.jsonl")
		if err := os.WriteFile(path, partial, 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr strings.Builder
		if err := run(slices.Concat(base, tc.args, []string{"-resume", "-jsonl", path}), &stdout, &stderr); err != nil {
			t.Fatal(err)
		}
		salvage := "resume " + path + ": 2 complete records salvaged (20 bytes of truncated tail dropped)\n"
		if got := stderr.String(); !strings.Contains(got, salvage) || !strings.Contains(got, tc.want) || strings.Contains(got, "warning") {
			t.Errorf("%v: stderr\n%s\nwant %q and %q, no warning", tc.args, got, salvage, tc.want)
		}
		if tc.args != nil {
			continue
		}
		if stdout.String() != fullOut.String() {
			t.Errorf("resumed summary differs:\n%s\nwant\n%s", stdout.String(), fullOut.String())
		}
		resumed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sorted := func(b []byte) []string { return slices.Sorted(slices.Values(strings.SplitAfter(string(b), "\n"))) }
		if !slices.Equal(sorted(resumed), sorted(golden)) {
			t.Errorf("resumed file holds other records than the uninterrupted run:\n%s", resumed)
		}
	}
}

// TestPlanJobKeys pins plan to the job lists the pre-consolidation code
// paths produced (this command's grid and spec branches, and a second
// command's inline copy of both): testdata/plan-keys.golden holds their
// runner.Job.Key strings, in job order, written down from commit 9758638
// before those paths were folded into one plan function.
func TestPlanJobKeys(t *testing.T) {
	blob, err := os.ReadFile("testdata/plan-keys.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	var section string
	for _, line := range strings.Split(strings.TrimSpace(string(blob)), "\n") {
		if name, ok := strings.CutPrefix(line, "# "); ok {
			section = name
			continue
		}
		want[section] = append(want[section], line)
	}

	fig7, err := experiments.ReportProtos("fig7")
	if err != nil {
		t.Fatal(err)
	}
	const tiny = "../../examples/scenarios/tiny-smoke.json"
	for _, tc := range []struct {
		section string
		args    []string
		protos  []scenario.ProtocolName
		grid    bool
	}{
		{"-scale small -trials 2", []string{"-scale", "small", "-trials", "2"}, scenario.AllProtocols, true},
		{"-scale small -trials 2 -exp fig7", []string{"-scale", "small", "-trials", "2"}, fig7, true},
		{"-spec tiny-smoke.json -seed 7 -pparam max_denom=1000 -trials 3",
			[]string{"-spec", tiny, "-seed", "7", "-pparam", "max_denom=1000", "-trials", "3"}, scenario.AllProtocols, false},
	} {
		sw, err := planArgs(t, tc.protos, tc.args...)
		if err != nil {
			t.Fatalf("%s: %v", tc.section, err)
		}
		var got []string
		for _, j := range sw.jobs {
			got = append(got, j.Key().String())
		}
		if !slices.Equal(got, want[tc.section]) {
			t.Errorf("%s: job keys diverged from the parent's:\n got %v\nwant %v", tc.section, got, want[tc.section])
		}
		if (sw.scale != nil) != tc.grid || (sw.name == "") != tc.grid || sw.descr == "" {
			t.Errorf("%s: plan labels = scale %v, name %q, descr %q", tc.section, sw.scale, sw.name, sw.descr)
		}
		if !tc.grid && sw.jobs[0].Params.ProtoParams["max_denom"] != 1000 {
			t.Errorf("%s: -pparam not merged into the jobs: %v", tc.section, sw.jobs[0].Params.ProtoParams)
		}
	}
}

// TestPlanRules pins the selection rules run's own tests do not reach: a
// spec keeps its own seed and trial count unless the flags are given, a
// scale keeps its trial count, and -pparam is re-validated after the
// merge.
func TestPlanRules(t *testing.T) {
	const tiny = "../../examples/scenarios/tiny-smoke.json"
	sw, err := planArgs(t, scenario.AllProtocols, "-spec", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.jobs) != 1 || sw.jobs[0].Params.Seed != 1 || sw.name != "tiny-smoke" {
		t.Errorf("spec defaults: %d jobs, seed %d, name %q", len(sw.jobs), sw.jobs[0].Params.Seed, sw.name)
	}
	if sw, err = planArgs(t, scenario.AllProtocols, "-scale", "small"); err != nil || len(sw.jobs) != 5*8*experiments.Small.Spec.TrialCount() {
		t.Errorf("scale default trials: %v, %v", sw, err)
	}
	if _, err := planArgs(t, scenario.AllProtocols, "-spec", tiny, "-pparam", "no_such_knob=1"); err == nil || !strings.Contains(err.Error(), "no_such_knob") {
		t.Errorf("unknown -pparam key: %v", err)
	}
}

func planArgs(t *testing.T, protos []scenario.ProtocolName, args ...string) (*sweep, error) {
	t.Helper()
	c, err := parseFlags(args, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return plan(c, protos)
}
