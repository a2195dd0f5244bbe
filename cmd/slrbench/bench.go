package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"slr/internal/metrics"
	"slr/internal/runner"
	"slr/internal/scenario"
	"slr/internal/spec"
)

// metric is one named, unit-tagged number of a report. Those measured
// once per pass also keep the extremes and the count.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	N     int     `json:"n,omitempty"`
}

func scalar(name, unit string, v float64) metric {
	return metric{Name: name, Unit: unit, Value: v}
}

func timing(name, unit string, vs []float64) metric {
	return metric{Name: name, Unit: unit, Value: median(vs), Min: slices.Min(vs), Max: slices.Max(vs), N: len(vs)}
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// each maps the passes through f.
func each(passes []pass, f func(pass) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = f(p)
	}
	return out
}

func passWall(p pass) float64 { return p.wall }
func passCPU(p pass) float64  { return p.cpu }

// report is the outcome of one run: one workload, one seed, one mode.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Passes    int      `json:"passes"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Why       []string `json:"failures,omitempty"`
	Metrics   []metric `json:"metrics"`
	// Info holds what the run also measured but does not report on its
	// result line.
	Info []metric `json:"info,omitempty"`
}

func (r *report) check(failed int, why []string) {
	r.Failed += failed
	r.Why = append(r.Why, why...)
}

// config is what a run is asked to do.
type config struct {
	seed    int64
	seconds float64 // measuring budget of the pass loop
	passes  int     // fixed pass count; 0 means fill the budget
}

// more reports whether the pass loop should go round again after n
// rounds: always up to least, then as long as at least half of another
// round fits the budget.
func (c config) more(n, least int, elapsed, last float64) bool {
	if c.passes > 0 {
		return n < c.passes
	}
	return n < least || elapsed+last/2 < c.seconds
}

// A run takes at least minSetups construction-only passes; setupBudget
// lets cheap ones repeat further, up to maxSetups, so that a millisecond
// timing is a median of many.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = time.Second
)

// loopFree are the protocols whose successor graphs must never hold a
// cycle, the paper's claim for label-ordered routing. The baselines make
// no such promise, and AODV, DSR and OLSR do show transient cycles on
// table1-mid.
var loopFree = []scenario.ProtocolName{scenario.SRP, scenario.LDR}

// runEndToEnd measures what a user of the simulator pays for a workload:
// host time, CPU time, set-up time and memory, with tracing off.
func runEndToEnd(w workload, s *spec.ScenarioSpec, c config) (report, error) {
	rep := report{Workload: w.name, Seed: c.seed}
	jobs, err := w.jobs(s, c.seed)
	if err != nil {
		return rep, err
	}

	// The budget covers the timed passes and the check pass; the first
	// timed pass comes first so that peak memory is a fresh process's.
	begin := time.Now()
	first, err := runPass(jobs, 0)
	if err != nil {
		return rep, err
	}
	peak, err := peakMemMB()
	if err != nil {
		return rep, err
	}
	timed := []pass{first}

	// The paper's claim, checked on every run: an untimed pass of the
	// label-ordered protocols with the successor-graph checker on.
	var checked []runner.Job
	for _, j := range jobs {
		if slices.Contains(loopFree, j.Params.Protocol) {
			j.Params.CheckInvariants = true
			checked = append(checked, j)
		}
	}
	if len(checked) > 0 {
		p, err := runPass(checked, 0)
		if err != nil {
			return rep, err
		}
		rep.Attempted += len(checked)
		rep.check(failedTrials(p, p))
	}

	// Two passes at least: the digest check needs a pair.
	for c.more(len(timed), 2, time.Since(begin).Seconds(), first.wall) {
		p, err := runPass(jobs, 0)
		if err != nil {
			return rep, err
		}
		timed = append(timed, p)
	}
	for _, p := range timed {
		rep.Attempted += len(jobs)
		rep.check(failedTrials(p, first))
	}
	rep.Passes = len(timed)

	var setups []float64
	begin = time.Now()
	for len(setups) < minSetups || (time.Since(begin) < setupBudget && len(setups) < maxSetups) {
		p, err := runPass(jobs, 1)
		if err != nil {
			return rep, err
		}
		setups = append(setups, p.wall)
	}

	walls, cpus, frames := each(timed, passWall), each(timed, passCPU), first.frames()
	rep.Metrics = []metric{
		scalar("wall_us_per_frame", "us", median(walls)*1e6/frames),
		scalar("cpu_us_per_frame", "us", median(cpus)*1e6/frames),
		timing("setup_s", "s", setups),
		scalar("peak_mem_mb", "MB", peak),
	}
	rep.Info = []metric{
		timing("pass.wall_s", "s", walls),
		timing("pass.cpu_s", "s", cpus),
		scalar("pass.frames", "count", frames),
	}
	return rep, nil
}

// runPerLayer alternates plain and traced passes. The plain passes give
// the exact statistics and the base of the overhead ratio; the traced
// ones run under a CPU profile with every model interposed.
func runPerLayer(w workload, s *spec.ScenarioSpec, c config) (report, error) {
	rep := report{Workload: w.name, Seed: c.seed, Trace: true}
	jobs, err := w.jobs(s, c.seed)
	if err != nil {
		return rep, err
	}
	registerTraced()
	tracedJobs := slices.Clone(jobs)
	for i := range tracedJobs {
		tracedJobs[i].Params = traceParams(jobs[i].Params)
	}

	var (
		plain, tr []pass
		led       ledger
		count     counters
	)
	begin := time.Now()
	for len(plain) == 0 || c.more(len(plain), 1, time.Since(begin).Seconds(), plain[len(plain)-1].wall+tr[len(tr)-1].wall) {
		p, err := runPass(jobs, 0)
		if err != nil {
			return rep, err
		}
		plain = append(plain, p)
		rep.Attempted += len(jobs)
		rep.check(failedTrials(p, plain[0]))

		var prof bytes.Buffer
		traced = counters{}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rep, err
		}
		t, err := runPass(tracedJobs, 0)
		pprof.StopCPUProfile()
		if err != nil {
			return rep, err
		}
		count = traced // every traced pass does the same work
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return rep, err
		}
		led.add(samples)
		tr = append(tr, t)
		rep.Attempted += len(jobs)
		rep.check(perturbed(p, t))
	}
	rep.Passes = len(plain)

	plainWall, plainCPU := median(each(plain, passWall)), median(each(plain, passCPU))
	tracedWall, tracedCPU := median(each(tr, passWall)), median(each(tr, passCPU))

	// 1. Sampled stack attribution: a layer's CPU seconds are its share of
	// the samples times the traced pass's CPU seconds.
	for _, l := range layers {
		rep.Metrics = append(rep.Metrics, scalar(l+".cpu_s", "s", led.share(l)*tracedCPU))
	}
	rep.Metrics = append(rep.Metrics,
		scalar(mallocLine+".cpu_s", "s", led.share(mallocLine)*tracedCPU),
		scalar("profile.samples_per_pass", "count", float64(led.total)/float64(len(tr))))

	// 2. Registry interposers: exact counts, and one timed span.
	p := plain[0]
	events := float64(p.events)
	rep.Metrics = append(rep.Metrics,
		scalar("radio.linkrange_calls", "count", float64(count.linkRange)),
		scalar("radio.linkrange_calls_per_event", "1/event", float64(count.linkRange)/events),
		scalar("mobility.position_calls", "count", float64(count.position)),
		scalar("routing.recv_control_calls", "count", float64(count.recvControl)),
		scalar("routing.recv_data_calls", "count", float64(count.recvData)),
		scalar("routing.originate_calls", "count", float64(count.originate)),
		scalar("routing.failed_calls", "count", float64(count.failed)),
		scalar("routing.callback_s", "s", count.callback().Seconds()))

	// 3. Exact statistics of the plain passes.
	var (
		sent, recv, control, collisions, dropsRetry, dropsQueue uint64
		hops, latency                                           metrics.Hist
	)
	for _, r := range p.results {
		sent += r.DataSent
		recv += r.DataRecv
		control += r.ControlTx
		collisions += r.Collisions
		dropsRetry += r.MACDropsRetry
		dropsQueue += r.MACDropsQueue
		hops.Merge(&r.HopHist)
		latency.Merge(&r.LatencyHist)
	}
	_, p95, _ := latency.PercentilesSec()
	meanHops := 0.0
	if hops.N > 0 {
		meanHops = float64(hops.Sum) / float64(hops.N)
	}
	rep.Metrics = append(rep.Metrics,
		scalar("pass.wall_s", "s", plainWall),
		scalar("pass.cpu_s", "s", plainCPU),
		scalar("pass.frames", "count", p.frames()),
		scalar("sim.events_fired", "count", events),
		scalar("sim.ns_per_event", "ns", plainWall*1e9/events),
		scalar("netstack.data_sent", "count", float64(sent)),
		scalar("netstack.data_recv", "count", float64(recv)),
		scalar("netstack.delivery_ratio", "ratio", float64(recv)/float64(sent)),
		scalar("netstack.control_tx", "count", float64(control)),
		scalar("radio.collisions", "count", float64(collisions)),
		scalar("mac.drops_retry", "count", float64(dropsRetry)),
		scalar("mac.drops_queue", "count", float64(dropsQueue)),
		scalar("metrics.mean_hops", "hops", meanHops),
		scalar("metrics.latency_p95_s", "s", p95),
		scalar("runtime.mallocs_per_event", "1/event", float64(p.mallocs)/events),
		scalar("runtime.alloc_mb", "MB", float64(p.allocBytes)/(1<<20)),
		scalar("runtime.gc_cycles", "count", float64(p.gcCycles)))
	for _, proto := range scenario.AllProtocols {
		name := "routing." + strings.ToLower(string(proto)) + ".trial_s"
		rep.Metrics = append(rep.Metrics, scalar(name, "s", median(each(plain, func(p pass) float64 {
			return protoWall(jobs, p, proto)
		}))))
	}
	rep.Metrics = append(rep.Metrics,
		scalar("traced.wall_s", "s", tracedWall),
		scalar("traced.cpu_s", "s", tracedCPU),
		scalar("traced.overhead_ratio", "ratio", tracedWall/plainWall))
	return rep, nil
}

// protoWall returns the host seconds p spent in proto's trials.
func protoWall(jobs []runner.Job, p pass, proto scenario.ProtocolName) float64 {
	total := 0.0
	for j, job := range jobs {
		if job.Params.Protocol == proto {
			total += p.trialWall[j]
		}
	}
	return total
}

// String renders the human table: name, value, unit, and the spread of
// what was measured once per pass.
func (r report) String() string {
	var b strings.Builder
	mode := "end to end"
	if r.Trace {
		mode = "per layer"
	}
	fmt.Fprintf(&b, "slrbench %s seed=%d (%s): %d passes, %d trials, %d failed\n", r.Workload, r.Seed, mode, r.Passes, r.Attempted, r.Failed)
	for _, m := range slices.Concat(r.Metrics, r.Info) {
		fmt.Fprintf(&b, "  %-34s %16.6f %-8s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(&b, " min %.6f median %.6f max %.6f n=%d", m.Min, m.Value, m.Max, m.N)
		}
		b.WriteByte('\n')
	}
	for _, w := range r.Why {
		fmt.Fprintf(&b, "  FAILED: %s\n", w)
	}
	return b.String()
}
