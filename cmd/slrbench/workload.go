package main

import (
	"embed"
	"fmt"

	"slr/internal/runner"
	"slr/internal/scenario"
	"slr/internal/spec"
)

// The workload specs are embedded, not read from examples/, so edits to
// examples/ or experiments.Mid cannot move the benchmark.
//
//go:embed workloads/*.json
var specFS embed.FS

// workload is one benchmark input: a spec and the protocols it is run
// under; BENCHMARK.json and the README say why each is in the suite. A
// pass runs the spec's "trials" sub-seeds for every protocol, and every
// pass of one run is the same work.
type workload struct {
	name      string
	protocols []scenario.ProtocolName
}

var workloads = []workload{
	{name: "table1-mid", protocols: scenario.AllProtocols},
	{name: "city-500", protocols: []scenario.ProtocolName{scenario.SRP}},
	{name: "flood-5000", protocols: []scenario.ProtocolName{scenario.SRP}},
	{name: "olsr-1000", protocols: []scenario.ProtocolName{scenario.OLSR}},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// loadSpec parses the embedded spec of the named workload.
func loadSpec(name string) (*spec.ScenarioSpec, error) {
	data, err := specFS.ReadFile("workloads/" + name + ".json")
	if err != nil {
		return nil, err
	}
	s, err := spec.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	return s, nil
}

// seedStride spaces the trial seeds of neighbouring -seed values so that
// runs with seeds n and n+1 share no trial.
const seedStride = 1000

// jobs flattens one pass of w: every protocol on the same sub-seeds, so
// the protocols meet identical topology and traffic, as in the paper.
func (w workload) jobs(s *spec.ScenarioSpec, seed int64) ([]runner.Job, error) {
	base, err := s.Params()
	if err != nil {
		return nil, err
	}
	return runner.GridJobs(w.protocols, []float64{0}, s.TrialCount(), seed*seedStride,
		func(proto scenario.ProtocolName, _ float64, seed int64) scenario.Params {
			p := base
			p.Protocol = proto
			p.Seed = seed
			return p
		}), nil
}
