package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/scenario"
	"slr/internal/traffic"
)

// tinyParams is a fast full-stack scenario (12 nodes, 15 s) for runner
// tests.
func tinyParams(proto scenario.ProtocolName, seed int64) scenario.Params {
	return scenario.Params{
		Protocol: proto,
		Nodes:    12,
		Terrain:  geo.Terrain{Width: 700, Height: 300},
		Range:    275,
		Duration: 15 * time.Second,
		Seed:     seed,
		Traffic:  traffic.Params{Flows: 3, PacketSize: 512, Rate: 4, MeanLife: 10 * time.Second},
		Mobility: mobility.Spec{Model: "waypoint", MaxSpeed: 20},
	}
}

func TestTrialJobsSeeding(t *testing.T) {
	jobs := TrialJobs(tinyParams(scenario.SRP, 100), 4)
	if len(jobs) != 4 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	for i, j := range jobs {
		if j.Index != i || j.Trial != i || j.Params.Seed != 100+int64(i) {
			t.Fatalf("job %d = {Index:%d Trial:%d Seed:%d}", i, j.Index, j.Trial, j.Params.Seed)
		}
	}
}

func TestGridJobsLayout(t *testing.T) {
	protos := []scenario.ProtocolName{scenario.SRP, scenario.AODV}
	pauses := []float64{0, 0.5, 1}
	jobs := GridJobs(protos, pauses, 2, 7, func(proto scenario.ProtocolName, pf float64, seed int64) scenario.Params {
		p := tinyParams(proto, seed)
		p.Mobility.Pause = time.Duration(pf * float64(p.Duration))
		return p
	})
	if len(jobs) != 2*3*2 {
		t.Fatalf("got %d jobs, want 12", len(jobs))
	}
	// Protocol-major, then pause, then trial; seeds restart per point.
	if jobs[0].Params.Protocol != scenario.SRP || jobs[11].Params.Protocol != scenario.AODV {
		t.Fatal("grid not protocol-major")
	}
	for i, j := range jobs {
		if j.Index != i {
			t.Fatalf("job %d has Index %d", i, j.Index)
		}
		if j.Params.Seed != 7+int64(j.Trial) {
			t.Fatalf("job %d seed = %d, want %d", i, j.Params.Seed, 7+int64(j.Trial))
		}
	}
}

// TestRunnerMatchesSerial is the determinism regression test of the
// runner's worker pool: for the same seeds, results must be identical
// to the serial scenario.RunTrials path, whatever the worker count. OLSR
// is included because it is the protocol most sensitive to incidental
// ordering (MPR tie-breaks), so it would surface any nondeterminism the
// scheduler introduced.
func TestRunnerMatchesSerial(t *testing.T) {
	for _, proto := range []scenario.ProtocolName{scenario.SRP, scenario.OLSR} {
		p := tinyParams(proto, 40)
		const trials = 5
		serial := scenario.RunTrials(p, trials)
		for _, workers := range []int{1, 2, 7} {
			results, err := Run(TrialJobs(p, trials), Options{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", proto, workers, err)
			}
			if !reflect.DeepEqual(serial.Results, results) {
				t.Fatalf("%s workers=%d: results diverge from serial path\nserial: %+v\nrunner: %+v",
					proto, workers, serial.Results, results)
			}
		}
	}
}

func TestRunResultsInJobOrder(t *testing.T) {
	jobs := TrialJobs(tinyParams(scenario.SRP, 300), 6)
	results, err := Run(jobs, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Seed != 300+int64(i) {
			t.Fatalf("results[%d].Seed = %d, want %d", i, r.Seed, 300+int64(i))
		}
		if r.DataSent == 0 {
			t.Fatalf("results[%d] looks unrun: %+v", i, r)
		}
	}
}

func TestRunEmptyJobList(t *testing.T) {
	// A zero-job run (an out-of-range shard slice, a fully-resumed file)
	// starts no worker and still flushes every emitter exactly once.
	e := &countingEmitter{}
	results, err := Run(nil, Options{Emitters: []Emitter{e}})
	if err != nil || len(results) != 0 {
		t.Fatalf("Run(nil) = %v, %v", results, err)
	}
	if e.emits != 0 || e.flushes != 1 {
		t.Fatalf("empty run: %d emits / %d flushes, want 0 / 1", e.emits, e.flushes)
	}
}

func TestSinksObserveEveryTrial(t *testing.T) {
	var jsonl, progress bytes.Buffer
	seen := 0
	jobs := TrialJobs(tinyParams(scenario.SRP, 50), 3)
	_, err := Run(jobs, Options{
		Workers:  2,
		Progress: &progress,
		Emitters: []Emitter{NewJSONL(&jsonl)},
		OnResult: func(Job, scenario.Result) { seen++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(jobs) {
		t.Fatalf("OnResult saw %d trials, want %d", seen, len(jobs))
	}
	if got := strings.Count(progress.String(), "\n"); got != len(jobs) {
		t.Fatalf("progress lines = %d, want %d:\n%s", got, len(jobs), progress.String())
	}

	// JSONL: one parseable record per line, all seeds present.
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != len(jobs) {
		t.Fatalf("jsonl lines = %d, want %d", len(lines), len(jobs))
	}
	seeds := map[int64]bool{}
	for _, line := range lines {
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad jsonl line %q: %v", line, err)
		}
		if rec.Protocol != "SRP" || rec.DataSent == 0 {
			t.Fatalf("implausible record %+v", rec)
		}
		seeds[rec.Seed] = true
	}
	for i := 0; i < len(jobs); i++ {
		if !seeds[50+int64(i)] {
			t.Fatalf("jsonl missing seed %d: %v", 50+i, seeds)
		}
	}

}

// countingEmitter fails every Emit after `failAt` calls and records how
// often the runner keeps knocking.
type countingEmitter struct {
	emits, flushes int
	failAt         int
}

func (e *countingEmitter) Emit(Job, scenario.Result) error {
	e.emits++
	if e.failAt > 0 && e.emits >= e.failAt {
		return errors.New("sink broke")
	}
	return nil
}

func (e *countingEmitter) Flush() error {
	e.flushes++
	return nil
}

// TestEmitterDisabledAfterFirstError is the failure-path regression test:
// a broken sink (full disk, closed pipe) must be abandoned after its first
// error — not hammered with every remaining trial, interleaving partial
// lines — while healthy sinks keep streaming and the sweep completes.
func TestEmitterDisabledAfterFirstError(t *testing.T) {
	jobs := TrialJobs(tinyParams(scenario.SRP, 70), 4)
	broken := &countingEmitter{failAt: 2}
	healthy := &countingEmitter{}
	results, err := Run(jobs, Options{
		Workers:  2,
		Emitters: []Emitter{broken, healthy},
	})
	if err == nil || err.Error() != "sink broke" {
		t.Fatalf("Run error = %v, want the sink's first error", err)
	}
	if broken.emits != 2 {
		t.Fatalf("broken emitter saw %d Emit calls after failing on its 2nd, want exactly 2", broken.emits)
	}
	if broken.flushes != 0 {
		t.Fatalf("broken emitter was flushed %d times after failing", broken.flushes)
	}
	if healthy.emits != len(jobs) || healthy.flushes != 1 {
		t.Fatalf("healthy emitter saw %d emits / %d flushes, want %d / 1", healthy.emits, healthy.flushes, len(jobs))
	}
	for i, r := range results {
		if r.DataSent == 0 {
			t.Fatalf("results[%d] looks unrun despite emitter failure: %+v", i, r)
		}
	}
}
