package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/ from this build's output")

// repoRoot is where the goldens and the scenario files live, seen from
// this package's directory (go test runs each package in its own).
const repoRoot = "../.."

// goldens pins slrsim's output byte for byte, per seed. A row's runs are
// executed in order and their output concatenated: stdout for a text
// golden, the -jsonl file (the harness appends -jsonl) for a .jsonl one.
// The result must equal testdata/<file>. To pin a new path, add a row and
// capture it with
//
//	go test ./cmd/slrsim -run TestGoldens -update
//
// which is also how every golden is re-captured after a deliberate
// behaviour change (say why in that change).
var goldens = []struct {
	file string
	why  string
	runs [][]string
}{
	{
		file: "table1-small.golden.jsonl",
		why:  "all five protocols over the full stack on a Table-I-shaped unit-disk run: how the channel ends receptions, the MAC answers them and the kernel orders them",
		runs: vary(withSpec("cmd/slrbench/workloads/table1-mid.json", "-duration 6s -trials 1"),
			"-protocol", "AODV", "DSR", "LDR", "OLSR", "SRP"),
	},
	{
		file: "srp-tables.golden.jsonl",
		why:  "SRP's sweep deleting computation state and routes, its hellos, link breaks and both multipath picks, which no shorter run reaches",
		runs: vary(withSpec("cmd/slrbench/workloads/table1-mid.json",
			"-protocol SRP -duration 30s -trials 2 -pparam delete_period_seconds=2 -pparam active_route_timeout_seconds=1 -pparam hello_interval_seconds=1"),
			"-pparam", "multipath=1", "multipath=2"),
	},
	{
		file: "city-shadowing.golden.jsonl",
		why:  "a fading radio under Manhattan mobility, where the channel's hearer lists are cut at each link's own range",
		runs: vary(withSpec("examples/scenarios/manhattan-500.json", "-duration 6s -trials 2"),
			"-protocol", "SRP", "AODV"),
	},
	{
		file: "olsr-small.golden.jsonl",
		why:  "OLSR's recompute, MPR selection and expiry at the mobility extremes: constant motion and a static topology",
		runs: vary(strings.Fields("-protocol OLSR -nodes 30 -width 1200 -height 350 -flows 14 -duration 120s -trials 2"),
			"-pause", "0s", "120s"),
	},
	{
		file: "olsr-1000-10s.golden",
		why:  "OLSR at benchmark scale: the TC storm, MPR selection settled on demand at each HELLO, and its loop violation at t=10 s",
		runs: [][]string{withSpec("cmd/slrbench/workloads/olsr-1000.json", "-duration 10s -trials 1 -check")},
	},
	{
		file: "aodv-dsr-60s.golden",
		why:  "AODV's and DSR's RREQ duplicate tests on the flood-carried rcommon.Flood record in a collapsed network: long MAC queues, late copies, 12/12 violating loop samples each",
		runs: vary(withSpec("examples/scenarios/paper-default.json", "-duration 60s -trials 1 -check"),
			"-protocol", "AODV", "DSR"),
	},
	{
		file: "srp-ldr-60s.golden",
		why:  "SRP's and LDR's RREQ relays at the paper's scale, each scheduled through netstack's pooled BroadcastControlAfter",
		runs: vary(withSpec("examples/scenarios/paper-default.json", "-duration 60s -trials 1 -check"),
			"-protocol", "SRP", "LDR"),
	},
	{
		file: "discovery-tuned.golden",
		why:  "rcommon's discovery table off its defaults: RREQ rate-limit deferrals, a short hold-down, a tight queue and salvage budget, short TTL schedules",
		runs: append(
			vary(withSpec("examples/scenarios/paper-default.json", tunedDiscovery+" -pparam ttl_0=3 -pparam ttl_1=7"),
				"-protocol", "SRP", "LDR", "AODV"),
			withSpec("examples/scenarios/paper-default.json", tunedDiscovery+" -protocol DSR -pparam first_ttl=2 -pparam net_ttl=20")),
	},
}

// tunedDiscovery sets every shared discovery key off its default.
const tunedDiscovery = "-duration 30s -trials 1 -check -pparam rreq_rate_limit=2 -pparam rreq_retries=3 -pparam queue_cap=4 -pparam discovery_holddown_seconds=1 -pparam node_traversal_seconds=0.03 -pparam max_salvage=1"

// withSpec returns the arguments of a run of the scenario file at path
// (relative to the repo root) with the given space-separated flags.
func withSpec(path, flags string) []string {
	return append([]string{"-spec", filepath.Join(repoRoot, path)}, strings.Fields(flags)...)
}

// vary returns one run per value: base plus name value.
func vary(base []string, name string, values ...string) [][]string {
	runs := make([][]string, len(values))
	for i, v := range values {
		runs[i] = append(base[:len(base):len(base)], name, v)
	}
	return runs
}

func TestGoldens(t *testing.T) {
	for _, g := range goldens {
		t.Run(g.file, func(t *testing.T) {
			t.Parallel()
			var got []byte
			for _, args := range g.runs {
				got = append(got, output(t, args, strings.HasSuffix(g.file, ".jsonl"))...)
			}
			checkGolden(t, filepath.Join(repoRoot, "testdata", g.file), g.why, got)
		})
	}
}

// output runs slrsim with args and returns what a golden pins of it: the
// -jsonl file if jsonl, else stdout.
func output(t *testing.T, args []string, jsonl bool) []byte {
	t.Helper()
	var stdout bytes.Buffer
	out := filepath.Join(t.TempDir(), "out.jsonl")
	if jsonl {
		args = append(args[:len(args):len(args)], "-jsonl", out)
	}
	if err := run(args, &stdout); err != nil {
		t.Fatalf("slrsim %s: %v", strings.Join(args, " "), err)
	}
	if !jsonl {
		return stdout.Bytes()
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkGolden compares got with the file at path, naming the first line
// that differs; under -update it rewrites the file instead.
func checkGolden(t *testing.T, path, why string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (go test -run TestGoldens -update creates it): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl := bytes.Split(got, []byte("\n"))
	wl := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s drifted at line %d; it pins %s\ngot:  %.200s\nwant: %.200s", path, i+1, why, gl[i], wl[i])
		}
	}
	t.Fatalf("%s drifted: got %d lines, want %d; it pins %s", path, len(gl), len(wl), why)
}
