package sweepcli

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"slr/internal/experiments"
	"slr/internal/geo"
	"slr/internal/runner"
	"slr/internal/scenario"
	"slr/internal/traffic"
)

func tinyParams(proto scenario.ProtocolName, seed int64) scenario.Params {
	p := scenario.DefaultParams(proto, 0, seed)
	p.Nodes = 12
	p.Terrain = geo.Terrain{Width: 700, Height: 300}
	p.Duration = 15 * time.Second
	p.Traffic = traffic.Params{Flows: 3, PacketSize: 512, Rate: 4, MeanLife: 10 * time.Second}
	return p
}

// TestRegisterFlagSurface pins the shared flag names: every binary that
// calls Register exposes exactly this orchestration surface.
func TestRegisterFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	Register(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if want := []string{"csv", "force", "jsonl", "resume", "shard"}; !slices.Equal(got, want) {
		t.Errorf("registered flags %v, want %v", got, want)
	}
}

// TestValidateRules pins the shared flag-combination refusals.
func TestValidateRules(t *testing.T) {
	if err := (&Flags{Resume: true}).Validate(); err == nil {
		t.Error("-resume without -jsonl accepted")
	}
	if err := (&Flags{Resume: true, JSONL: "a.jsonl", CSV: "a.csv"}).Validate(); err == nil {
		t.Error("-resume with -csv accepted")
	}
	if err := (&Flags{Resume: true, JSONL: "a.jsonl"}).Validate(); err != nil {
		t.Errorf("valid resume combination refused: %v", err)
	}
	if err := (&Flags{}).Validate(); err != nil {
		t.Errorf("zero flags refused: %v", err)
	}
}

// TestOpenClobberGuard verifies Open refuses an existing non-empty
// output without -resume/-force, leaving the file untouched.
func TestOpenClobberGuard(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.jsonl")
	if err := os.WriteFile(path, []byte("{\"protocol\":\"SRP\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := &Flags{JSONL: path}
	if _, err := f.Open(io.Discard); !errors.Is(err, runner.ErrWouldClobber) {
		t.Fatalf("got %v, want ErrWouldClobber", err)
	}
	blob, err := os.ReadFile(path)
	if err != nil || string(blob) != "{\"protocol\":\"SRP\"}\n" {
		t.Fatalf("refused file was modified: %q, %v", blob, err)
	}
	// -force truncates and starts fresh.
	ff := &Flags{JSONL: path, Force: true}
	out, err := ff.Open(io.Discard)
	if err != nil {
		t.Fatalf("-force open: %v", err)
	}
	defer out.Close()
	if len(out.Salvaged) != 0 || len(out.Emitters) != 1 {
		t.Fatalf("force-open outputs: salvaged=%d emitters=%d", len(out.Salvaged), len(out.Emitters))
	}
	if blob, err := os.ReadFile(path); err != nil || len(blob) != 0 {
		t.Fatalf("-force left %q, %v; want the file truncated", blob, err)
	}
}

// TestOpenResumeAndJobsPipeline runs the full shared pipeline: a sweep's
// JSONL is cut mid-record, Open salvages it, and Jobs re-runs only the
// missing trials after the shard slice.
func TestOpenResumeAndJobsPipeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	p := tinyParams(scenario.SRP, 1)
	jobs := runner.TrialJobs(p, 4)

	// Write records for trials 0 and 2, then a truncated tail.
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	e := runner.NewJSONL(f)
	for _, i := range []int{0, 2} {
		if err := e.Emit(jobs[i], scenario.Result{Protocol: p.Protocol, Pause: jobs[i].Params.Pause, Seed: jobs[i].Params.Seed}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"protocol":"SRP","pause_`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cli := &Flags{JSONL: path, Resume: true}
	if err := cli.Validate(); err != nil {
		t.Fatal(err)
	}
	var stderr strings.Builder
	out, err := cli.Open(&stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if len(out.Salvaged) != 2 {
		t.Fatalf("salvaged %d records, want 2", len(out.Salvaged))
	}
	left := cli.Jobs(jobs, out, &stderr)
	if len(left) != 2 || left[0].Trial != 1 || left[1].Trial != 3 {
		t.Fatalf("jobs after resume: %+v", left)
	}
	if !strings.Contains(stderr.String(), "2 of 4 jobs already complete") {
		t.Fatalf("missing shared resume message in %q", stderr.String())
	}

	// The shard slice applies before the skip filter, like both CLIs.
	cli.Shard = runner.ShardSpec{Index: 1, Count: 2} // trials 0, 2 — all salvaged
	if left := cli.Jobs(jobs, out, io.Discard); len(left) != 0 {
		t.Fatalf("sharded resume left %d jobs, want 0", len(left))
	}
}

// TestPlanJobKeys pins the one plan function to the job lists the
// pre-consolidation code paths produced (cmd/experiments' grid and spec
// branches, and a second command's inline copy of both):
// testdata/plan-keys.golden holds their runner.Job.Key strings, in job
// order, written down from commit 9758638 before those paths were folded
// into Selection.Plan.
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
	const tiny = "../../../examples/scenarios/tiny-smoke.json"
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
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		sel := RegisterSelection(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		plan, err := sel.Plan(tc.protos)
		if err != nil {
			t.Fatalf("%s: %v", tc.section, err)
		}
		var got []string
		for _, j := range plan.Jobs {
			got = append(got, j.Key().String())
		}
		if !slices.Equal(got, want[tc.section]) {
			t.Errorf("%s: job keys diverged from the parent's:\n got %v\nwant %v", tc.section, got, want[tc.section])
		}
		if (plan.Scale != nil) != tc.grid || (plan.Name == "") != tc.grid || plan.Descr == "" {
			t.Errorf("%s: plan labels = scale %v, name %q, descr %q", tc.section, plan.Scale, plan.Name, plan.Descr)
		}
		if !tc.grid && plan.Jobs[0].Params.ProtoParams["max_denom"] != 1000 {
			t.Errorf("%s: -pparam not merged into the jobs: %v", tc.section, plan.Jobs[0].Params.ProtoParams)
		}
	}
}

// TestPlanRules pins the selection rules that used to be copied per
// binary: a spec keeps its own seed and trial count unless the flags are
// given, -pparam needs -spec and is re-validated after the merge, and a
// bad scale, spec or trial count is refused.
func TestPlanRules(t *testing.T) {
	const tiny = "../../../examples/scenarios/tiny-smoke.json"
	plan := func(args ...string) (*Plan, error) {
		fs := flag.NewFlagSet("x", flag.ContinueOnError)
		sel := RegisterSelection(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return sel.Plan(scenario.AllProtocols)
	}
	p, err := plan("-spec", tiny)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Jobs) != 1 || p.Jobs[0].Params.Seed != 1 || p.Name != "tiny-smoke" {
		t.Errorf("spec defaults: %d jobs, seed %d, name %q", len(p.Jobs), p.Jobs[0].Params.Seed, p.Name)
	}
	if p, err = plan("-scale", "small"); err != nil || len(p.Jobs) != 5*8*experiments.Small.Trials {
		t.Errorf("scale default trials: %v, %v", p, err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "galactic"}, "unknown scale"},
		{[]string{"-spec", "no-such-spec"}, "no-such-spec"},
		{[]string{"-pparam", "ttl_0=30"}, "-pparam requires -spec"},
		{[]string{"-spec", tiny, "-pparam", "no_such_knob=1"}, "no_such_knob"},
		{[]string{"-trials", "-1"}, "-trials"},
	} {
		if _, err := plan(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Plan(%v) = %v, want an error mentioning %q", tc.args, err, tc.want)
		}
	}
}

// TestProfilesWriteBothFiles: -cpuprofile and -memprofile each leave a
// non-empty pprof file once the stop function has run, and neither flag
// given means nothing is written and nothing fails.
func TestProfilesWriteBothFiles(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	prof := RegisterProfiles(fs)
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := prof.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", path, err)
		}
	}
	stop, err = (&Profiles{}).Start()
	if err != nil || stop() != nil {
		t.Errorf("no profiling flags: start %v", err)
	}
}
