package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"slr/internal/scenario"
	"slr/internal/spec"
)

func TestOwner(t *testing.T) {
	const radioDir = "/src/internal/radio/"
	cases := []struct {
		name   string
		stack  []frame // leaf first
		layer  string
		malloc bool
	}{
		{
			name: "maths under LinkRange belongs to propagation",
			stack: []frame{
				{"math.pow", "/go/src/math/pow.go"},
				{"slr/internal/radio.shadowing.LinkRange", radioDir + "propagation.go"},
				{"slr/internal/radio.(*Channel).audible", radioDir + "radio.go"},
				{"slr/internal/sim.(*Simulator).fire", "/src/internal/sim/sim.go"},
			},
			layer: "radio.propagation",
		},
		{
			name: "the interposer's own frame is skipped",
			stack: []frame{
				{"slr/cmd/slrbench.tracedProp.LinkRange", "/src/cmd/slrbench/interpose.go"},
				{"slr/internal/radio.(*grid).query", radioDir + "grid.go"},
			},
			layer: "radio.grid",
		},
		{
			name:  "background marking is the collector's",
			stack: []frame{{"runtime.scanobject", ""}, {"runtime.gcDrain", ""}, {"runtime.gcBgMarkWorker.func2", ""}, {"runtime.systemstack", ""}},
			layer: "runtime.gc",
		},
		{
			name: "allocation stays with the layer that allocated",
			stack: []frame{
				{"runtime.memclrNoHeapPointers", ""},
				{"runtime.mallocgc", ""},
				{"runtime.newobject", ""},
				{"slr/internal/routing/srp.(*Protocol).relayRREQ", "/src/internal/routing/srp/srp.go"},
				{"slr/internal/netstack.(*Node).deliver", "/src/internal/netstack/netstack.go"},
			},
			layer:  "routing.srp",
			malloc: true,
		},
		{
			name: "point arithmetic belongs to its caller",
			stack: []frame{
				{"slr/internal/geo.Point.Dist2", "/src/internal/geo/geo.go"},
				{"slr/internal/mobility.(*Waypoint).Position", "/src/internal/mobility/mobility.go"},
			},
			layer: "mobility",
		},
		{
			name: "a generic instantiation's type argument is not the package",
			stack: []frame{
				{"slr/internal/registry.(*Registry[slr/internal/radio.PropFactory]).Get", "/src/internal/registry/registry.go"},
				{"slr/internal/scenario.Run", "/src/internal/scenario/scenario.go"},
			},
			layer: "runner",
		},
		{
			name:  "fraction arithmetic is the label layer",
			stack: []frame{{"slr/internal/frac.Mediant", "/src/internal/frac/frac.go"}, {"slr/internal/routing/srp.(*Protocol).handleRREP", ""}},
			layer: "label",
		},
		{
			name:  "no repo frame at all",
			stack: []frame{{"runtime.mcall", ""}},
			layer: "other",
		},
	}
	for _, c := range cases {
		layer, malloc := owner(c.stack)
		if layer != c.layer || malloc != c.malloc {
			t.Errorf("%s: owner = %q, malloc %v; want %q, %v", c.name, layer, malloc, c.layer, c.malloc)
		}
		if !slices.Contains(layers, layer) {
			t.Errorf("%s: layer %q is not in the ledger", c.name, layer)
		}
	}
}

var spinSink float64

//go:noinline
func spin(d time.Duration) {
	for begin := time.Now(); time.Since(begin) < d; {
		for i := 0; i < 1000; i++ {
			spinSink += math.Sqrt(float64(i))
		}
	}
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var hits int64
	for _, s := range samples {
		for _, f := range s.stack {
			if f.fn == "slr/cmd/slrbench.spin" && strings.HasSuffix(f.file, "slrbench_test.go") {
				hits += s.count
				break
			}
		}
	}
	// 100 Hz over 0.3 s of spinning is about 30 samples.
	if hits < 5 {
		t.Errorf("%d samples in spin, of %d stacks decoded", hits, len(samples))
	}
	if _, err := parseProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("a truncated profile decoded without error")
	}
}

// tiny is a 12-node, 15 s spec run under two protocols, so that a pass has
// four trials and finishes in milliseconds.
func tiny(t *testing.T) (workload, *spec.ScenarioSpec) {
	t.Helper()
	data, err := os.ReadFile("testdata/tiny.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return workload{name: "tiny", protocols: []scenario.ProtocolName{scenario.SRP, scenario.OLSR}}, s
}

// contract is the part of BENCHMARK.json the tests hold the code to.
type contract struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkMetrics holds a report to the names and units BENCHMARK.json
// declares: every one present, none extra, every value finite.
func checkMetrics(t *testing.T, rep report, want []struct{ Name, Unit string }) {
	t.Helper()
	got := map[string]metric{}
	for _, m := range rep.Metrics {
		if _, dup := got[m.Name]; dup {
			t.Errorf("metric %s reported twice", m.Name)
		}
		got[m.Name] = m
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("metric %s = %v", m.Name, m.Value)
		}
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s declared in BENCHMARK.json but not reported", w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Unit, w.Unit)
		}
		delete(got, w.Name)
	}
	for name := range got {
		t.Errorf("metric %s reported but not declared in BENCHMARK.json", name)
	}
}

func TestEndToEndOnTinySpec(t *testing.T) {
	w, s := tiny(t)
	rep, err := runEndToEnd(w, s, config{seed: 3, passes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Passes != 2 {
		t.Fatalf("%d passes, %d failed: %v", rep.Passes, rep.Failed, rep.Why)
	}
	// Two timed passes of four trials, and the loop check of SRP's two.
	if rep.Attempted != 10 {
		t.Errorf("attempted %d trials, want 10", rep.Attempted)
	}
	checkMetrics(t, rep, readContract(t).EndToEnd)
	for _, m := range rep.Metrics {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, m.Value)
		}
	}
}

func TestPerLayerOnTinySpec(t *testing.T) {
	w, s := tiny(t)
	rep, err := runPerLayer(w, s, config{seed: 3, passes: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The traced passes repeating the plain ones exactly is part of Failed.
	if rep.Failed != 0 || rep.Attempted != 16 {
		t.Fatalf("attempted %d, failed %d: %v", rep.Attempted, rep.Failed, rep.Why)
	}
	checkMetrics(t, rep, readContract(t).PerLayer)

	value := func(name string) float64 {
		i := slices.IndexFunc(rep.Metrics, func(m metric) bool { return m.Name == name })
		if i < 0 {
			t.Fatalf("no metric %s", name)
		}
		return rep.Metrics[i].Value
	}
	for _, name := range []string{
		"radio.linkrange_calls", "mobility.position_calls", "routing.recv_control_calls",
		"routing.recv_data_calls", "routing.originate_calls", "routing.callback_s",
		"sim.events_fired", "netstack.data_recv", "pass.frames",
	} {
		if value(name) <= 0 {
			t.Errorf("%s = %v on a spec that routes, want > 0", name, value(name))
		}
	}
	sum := 0.0
	for _, l := range layers {
		sum += value(l + ".cpu_s")
	}
	// Zero when the millisecond-long passes caught no sample at all.
	if cpu := value("traced.cpu_s"); sum != 0 && math.Abs(sum-cpu) > 1e-9*cpu {
		t.Errorf("layer cpu_s sum to %v, traced pass used %v", sum, cpu)
	}
}

func TestFailedTrials(t *testing.T) {
	w, s := tiny(t)
	jobs, err := w.jobs(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := runPass(jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPass(jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if failed, why := failedTrials(b, a); failed != 0 {
		t.Fatalf("two passes over one job list disagree: %v", why)
	}

	b.digest[0] ^= 1
	if failed, _ := failedTrials(b, a); failed != len(jobs) {
		t.Errorf("a digest mismatch failed %d trials, want all %d", failed, len(jobs))
	}
	b.digest = a.digest
	b.results = slices.Clone(b.results)
	b.results[1].DataRecv = 0
	b.results[2].LoopErrors = []string{"t=5s: destination 1: successor cycle [2 3 2]"}
	if failed, why := failedTrials(b, a); failed != 2 || len(why) != 2 {
		t.Errorf("failed = %d (%v), want the two spoiled trials", failed, why)
	}

	// Another seed is another input: the digest must tell.
	other, err := w.jobs(s, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := runPass(other, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.digest == a.digest {
		t.Error("seeds 3 and 4 produced the same records")
	}
}

func TestTracingDoesNotPerturb(t *testing.T) {
	w, s := tiny(t)
	jobs, err := w.jobs(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runPass(jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	registerTraced()
	for i := range jobs {
		jobs[i].Params = traceParams(jobs[i].Params)
	}
	traced = counters{}
	tr, err := runPass(jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if failed, why := perturbed(plain, tr); failed != 0 {
		t.Fatalf("traced pass differs: %v", why)
	}
	// Beyond the gated counters: the derived figures agree too.
	for i, a := range plain.results {
		b := tr.results[i]
		if a.DeliveryRatio != b.DeliveryRatio || a.Latency != b.Latency || a.AvgSeqno != b.AvgSeqno ||
			a.RREQTx != b.RREQTx || a.HopHist != b.HopHist {
			t.Errorf("trial %d: traced result %+v, plain %+v", i, b, a)
		}
	}
	if traced.linkRange == 0 || traced.position == 0 || traced.recvControl == 0 {
		t.Errorf("interposers saw nothing: %+v", traced)
	}

	tr.results = slices.Clone(tr.results)
	tr.results[0].Collisions++
	if failed, _ := perturbed(plain, tr); failed != 1 {
		t.Errorf("a changed collision count failed %d trials, want 1", failed)
	}
	tr.events++
	if failed, _ := perturbed(plain, tr); failed != len(jobs) {
		t.Errorf("a changed event count failed %d trials, want all", failed)
	}
}

func TestSetupPassIsConstructionOnly(t *testing.T) {
	w, s := tiny(t)
	jobs, err := w.jobs(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := runPass(jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.events != uint64(len(jobs)) {
		t.Errorf("set-up pass fired %d events over %d trials, want one each", p.events, len(jobs))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if q1, q3 := quartiles(vs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v; want 1, 4", q1, q3)
	}
	if m := median(vs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
}

func TestContractMatchesCode(t *testing.T) {
	c := readContract(t)
	if c.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %v, -seconds defaults to %v", c.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
		s, err := loadSpec(w.name)
		if err != nil {
			t.Error(err)
			continue
		}
		if _, err := w.jobs(s, 1); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	if !slices.Equal(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, have)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope", "-trace", "0"},
		{"-trace", "0"},
		{"-trace", "0", "-workload", "city-500", "stray"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed %q before failing", args, out.String())
		}
	}
}
