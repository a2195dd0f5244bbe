package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"time"

	"slr/internal/runner"
	"slr/internal/scenario"
	"slr/internal/sim"
)

// pass is what one run of a workload's job list produced and cost.
type pass struct {
	wall      float64   // host seconds, construction included
	cpu       float64   // process user+sys seconds
	trialWall []float64 // host seconds per job, in job order
	results   []scenario.Result
	events    uint64 // sim events fired, summed over the trials
	// digest is the sha256 of the pass's sorted JSONL records: the whole
	// deterministic output of its trials.
	digest [sha256.Size]byte

	mallocs, allocBytes uint64 // runtime.MemStats deltas over the pass
	gcCycles            uint32
}

// runPass runs jobs one at a time through the runner, as a sweep does,
// with a JSONL emitter. A non-zero eventLimit stops every trial after
// that many events: with 1, what remains is construction.
func runPass(jobs []runner.Job, eventLimit uint64) (pass, error) {
	var (
		p    pass
		last *sim.Simulator
		out  bytes.Buffer
	)
	// Fired is read when the next trial starts, not kept per simulator:
	// holding every trial's simulator would hold its heap too.
	scenario.SimHook = func(s *sim.Simulator) {
		if last != nil {
			p.events += last.Fired()
		}
		last = s
		if eventLimit != 0 {
			s.SetEventLimit(eventLimit)
		}
	}
	defer func() { scenario.SimHook = nil }()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	start := time.Now()
	prev := start
	results, err := runner.Run(jobs, runner.Options{
		Workers:  1,
		Emitters: []runner.Emitter{runner.NewJSONL(&out)},
		OnResult: func(runner.Job, scenario.Result) {
			now := time.Now()
			p.trialWall = append(p.trialWall, now.Sub(prev).Seconds())
			prev = now
		},
	})
	p.wall = time.Since(start).Seconds()
	p.cpu = cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	if err != nil {
		return pass{}, fmt.Errorf("emit: %w", err)
	}
	if last != nil {
		p.events += last.Fired()
	}
	p.results = results
	p.mallocs = after.Mallocs - before.Mallocs
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.gcCycles = after.NumGC - before.NumGC

	lines := bytes.Split(bytes.TrimSuffix(out.Bytes(), []byte("\n")), []byte("\n"))
	slices.SortFunc(lines, bytes.Compare)
	p.digest = sha256.Sum256(bytes.Join(lines, []byte("\n")))
	return p, nil
}

// frames counts what the simulated network put on the air in the pass, as
// the records tell it: control packets transmitted plus hops travelled by
// delivered data packets. It is fixed by the seed and by the simulator's
// output, not by how the simulator computes it, so host time per frame
// compares across seeds, and moves with host time for any change that
// keeps the records byte-identical.
func (p pass) frames() float64 {
	var n uint64
	for _, r := range p.results {
		n += r.ControlTx + r.HopHist.Sum
	}
	return float64(n)
}

// failedTrials counts the trials of p that fail: one that delivered no
// data packet or reported a routing loop, and all of them when the pass's
// records differ from the reference pass's.
func failedTrials(p, ref pass) (failed int, why []string) {
	if p.digest != ref.digest {
		return len(p.results), []string{fmt.Sprintf("record digest %x differs from the first pass's %x", p.digest[:6], ref.digest[:6])}
	}
	for _, r := range p.results {
		switch {
		case r.DataRecv == 0:
			why = append(why, fmt.Sprintf("%s seed %d delivered no data packet", r.Protocol, r.Seed))
		case len(r.LoopErrors) > 0:
			why = append(why, fmt.Sprintf("%s seed %d: %d loop errors, first %s", r.Protocol, r.Seed, len(r.LoopErrors), r.LoopErrors[0]))
		default:
			continue
		}
		failed++
	}
	return failed, why
}

// perturbed counts the trials whose traced run did not repeat the plain
// run: tracing must observe the simulation, not change it.
func perturbed(plain, tr pass) (failed int, why []string) {
	if plain.events != tr.events {
		return len(tr.results), []string{fmt.Sprintf("traced pass fired %d events, plain pass %d", tr.events, plain.events)}
	}
	for i, a := range plain.results {
		b := tr.results[i]
		if a.DataSent != b.DataSent || a.DataRecv != b.DataRecv || a.ControlTx != b.ControlTx ||
			a.Collisions != b.Collisions || a.MACDropsRetry != b.MACDropsRetry ||
			a.MACDropsQueue != b.MACDropsQueue || !maps.Equal(a.DropReasons, b.DropReasons) {
			failed++
			why = append(why, fmt.Sprintf("%s seed %d: traced statistics differ from the plain run's", a.Protocol, a.Seed))
		}
	}
	return failed, why
}
