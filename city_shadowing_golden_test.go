// Per-seed byte-identity pin for a fading radio under Manhattan mobility:
// the radio channel asks Propagation.LinkRange once per sender per
// mobility epoch on this path (see internal/radio), and no run can select
// a linear-scan channel to compare against any more, so the full record
// stream of a short slice of examples/scenarios/manhattan-500.json is
// frozen instead. The golden was generated by the commit before the
// channel first remembered a link's range (9f82299).
//
// Regenerate (only for a documented behavior change):
// go test -run TestCityShadowingGoldenJSONL -update .
package slr_test

import (
	"testing"
	"time"

	"slr/internal/runner"
	"slr/internal/scenario"
	"slr/internal/spec"
)

const cityGolden = "testdata/city-shadowing.golden.jsonl"

func TestCityShadowingGoldenJSONL(t *testing.T) {
	sp, err := spec.Load("examples/scenarios/manhattan-500.json")
	if err != nil {
		t.Fatal(err)
	}
	base, err := sp.Params()
	if err != nil {
		t.Fatal(err)
	}
	base.Duration = 6 * time.Second
	var jobs []runner.Job
	for _, proto := range []scenario.ProtocolName{scenario.SRP, scenario.AODV} {
		p := base
		p.Protocol = proto
		for _, j := range runner.TrialJobs(p, 2) {
			j.Index = len(jobs)
			jobs = append(jobs, j)
		}
	}
	checkGolden(t, cityGolden, jobs)
}
