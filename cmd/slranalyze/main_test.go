package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"slr/internal/experiments"
	"slr/internal/runner"
	"slr/internal/scenario"
)

// sweepJSONL runs the small-scale grid in process, streaming JSONL exactly
// as `experiments -jsonl` does (completion order, all workers).
func sweepJSONL(t *testing.T, path string, protos []scenario.ProtocolName, shard runner.ShardSpec) {
	t.Helper()
	var buf bytes.Buffer
	jobs := shard.Select(experiments.Small.Jobs(protos, 1))
	if _, err := experiments.SweepOpts(jobs, runner.Options{Emitters: []runner.Emitter{runner.NewJSONL(&buf)}}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReproducesSweepByteIdentically is the acceptance gate of the
// offline aggregator: run the small-scale sweep once, then re-derive every
// report from the JSONL alone and compare byte for byte against what the
// live sweep printed. The reference is testdata/small-sweep-all.golden —
// the stdout of `experiments -scale small -exp all -quiet` at the last
// commit whose sweep scattered results straight into grid cells (9758638),
// so the records→merge→render pipeline is pinned to an implementation that
// never saw a record.
func TestReproducesSweepByteIdentically(t *testing.T) {
	golden, err := os.ReadFile("testdata/small-sweep-all.golden")
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(t.TempDir(), "sweep.jsonl")
	sweepJSONL(t, in, scenario.AllProtocols, runner.ShardSpec{})

	// "all" is the golden itself; every other grid report is one of its
	// blank-line-separated sections.
	for _, report := range []string{"all", "table1", "shape", "percentiles", "fig3", "fig4", "fig7"} {
		var out, errw bytes.Buffer
		err := run([]string{"-in", in, "-scale", "small", "-report", report},
			strings.NewReader(""), &out, &errw)
		if err != nil {
			t.Fatalf("-report %s: %v", report, err)
		}
		got := out.String()
		if report == "all" && got != string(golden) {
			t.Errorf("-report all differs from the live sweep:\n--- offline ---\n%s--- live ---\n%s", got, golden)
		}
		if len(got) < 100 || !strings.Contains(string(golden), got) {
			t.Errorf("-report %s is not a section of the live sweep's report:\n%s", report, got)
		}
		if errw.Len() != 0 {
			t.Errorf("-report %s: unexpected stderr (leftover records?):\n%s", report, errw.String())
		}
	}

	// Protocol filtering drops the others' columns and turns their shape
	// claims into [n/a], never into verdict flips.
	var out, errw bytes.Buffer
	if err := run([]string{"-in", in, "-scale", "small", "-protos", "srp,ldr", "-report", "table1"},
		strings.NewReader(""), &out, &errw); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); strings.Contains(got, "AODV") || !strings.Contains(got, "SRP") {
		t.Errorf("-protos filter not applied:\n%s", got)
	}
	out.Reset()
	if err := run([]string{"-in", in, "-scale", "small", "-protos", "SRP", "-report", "shape"},
		strings.NewReader(""), &out, &errw); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, "[n/a]") || strings.Contains(got, "[FAIL]") {
		t.Errorf("shape report on filtered grid should mark comparisons n/a, not FAIL:\n%s", got)
	}
}

// TestShardUnionByteIdentical is the acceptance gate of sharded sweeps:
// split the same grid across 2 and then 4 shard processes, merge the
// shards' JSONL through slranalyze, and require output byte-identical to
// the single-process sweep's analysis — no duplicates, no missing cells,
// no stderr complaints.
func TestShardUnionByteIdentical(t *testing.T) {
	protos := []scenario.ProtocolName{scenario.SRP, scenario.OLSR}
	dir := t.TempDir()
	sweepTo := func(path string, shard runner.ShardSpec) {
		t.Helper()
		sweepJSONL(t, path, protos, shard)
	}
	analyze := func(args []string) (string, string) {
		t.Helper()
		var out, errw bytes.Buffer
		if err := run(args, strings.NewReader(""), &out, &errw); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return out.String(), errw.String()
	}

	single := filepath.Join(dir, "single.jsonl")
	sweepTo(single, runner.ShardSpec{})
	want, errw := analyze([]string{"-in", single, "-scale", "small"})
	if errw != "" {
		t.Fatalf("single-process analysis wrote stderr:\n%s", errw)
	}

	for _, shards := range []int{2, 4} {
		args := []string{"-scale", "small"}
		for i := 1; i <= shards; i++ {
			path := filepath.Join(dir, fmt.Sprintf("shard%d-of-%d.jsonl", i, shards))
			sweepTo(path, runner.ShardSpec{Index: i, Count: shards})
			args = append(args, "-in", path)
		}
		got, errw := analyze(args)
		if got != want {
			t.Errorf("%d-shard merge differs from single-process analysis:\n--- merged ---\n%s--- single ---\n%s",
				shards, got, want)
		}
		if errw != "" {
			t.Errorf("%d-shard merge wrote stderr (dups? missing cells?):\n%s", shards, errw)
		}
	}

	// Feeding one shard twice alongside the rest must dedup (with a stderr
	// note), not double that shard's weight in every mean.
	args := []string{"-scale", "small",
		"-in", filepath.Join(dir, "shard1-of-2.jsonl"),
		"-in", filepath.Join(dir, "shard1-of-2.jsonl"),
		"-in", filepath.Join(dir, "shard2-of-2.jsonl")}
	got, errw := analyze(args)
	if got != want {
		t.Errorf("double-fed shard changed the analysis:\n%s", got)
	}
	if !strings.Contains(errw, "duplicate records dropped") {
		t.Errorf("double-fed shard not reported:\n%s", errw)
	}

	// A lost shard: the analysis proceeds but the holes are named.
	_, errw = analyze([]string{"-scale", "small", "-in", filepath.Join(dir, "shard1-of-2.jsonl")})
	if !strings.Contains(errw, "cells deviate") {
		t.Errorf("missing shard not reported:\n%s", errw)
	}
}

// TestTrialsReportFromStdin covers the scale-free grouping path on a
// hand-built JSONL stream fed through stdin, out of trial order.
func TestTrialsReportFromStdin(t *testing.T) {
	lines := `{"protocol":"LDR","pause_seconds":30,"trial":1,"seed":2,"delivery_ratio":0.8,"network_load":1.5,"latency_sec":0.02,"data_sent":10,"data_recv":8,"schema":2}
{"protocol":"SRP","pause_seconds":30,"trial":0,"seed":1,"delivery_ratio":1,"network_load":0.5,"latency_sec":0.01,"data_sent":10,"data_recv":10,"schema":2}
{"protocol":"LDR","pause_seconds":30,"trial":0,"seed":1,"delivery_ratio":0.9,"network_load":null,"latency_sec":0.03,"data_sent":10,"data_recv":9,"schema":2}
`
	var out, errw bytes.Buffer
	if err := run([]string{"-report", "trials"}, strings.NewReader(lines), &out, &errw); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// Paper protocol order, not input order; the null network_load is
	// excluded and flagged, not averaged.
	if srp, ldr := strings.Index(got, "SRP pause=30s"), strings.Index(got, "LDR pause=30s"); srp < 0 || ldr < 0 || srp > ldr {
		t.Errorf("groups missing or misordered:\n%s", got)
	}
	if !strings.Contains(got, "(n/a in 1 of 2 trials)") {
		t.Errorf("null network_load not flagged:\n%s", got)
	}
}

func TestBadInputs(t *testing.T) {
	if err := run([]string{"-in", "/does/not/exist.jsonl"}, strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("missing input file accepted")
	}
	if err := run([]string{"-report", "bogus"}, strings.NewReader(`{"protocol":"SRP","pause_seconds":0}`), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("unknown report accepted")
	}
	if err := run(nil, strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("empty input accepted")
	}
	// A doubled "-" would silently read a drained stdin the second time.
	if err := run([]string{"-in", "-", "-in", "-"},
		strings.NewReader(`{"protocol":"SRP","pause_seconds":0}`+"\n"), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
		t.Error("duplicate stdin input accepted")
	}
}
