// Per-seed byte-identity pin for SRP's table housekeeping. An rreq state
// and an invalid route's ordering live DeletePeriod = 60 s, and every other
// golden and every benchmark workload runs 2–20 s, so none of them makes
// sweep delete anything, expire a successor set wholesale, or send a
// HELLO. This one runs the Table I shape for 30 s with DeletePeriod 2 s,
// ActiveRouteTimeout 1 s and 1 s hellos, once under round-robin and once
// under random successor choice: 10,092 rreq-state deletions and 171 route
// deletions over the round-robin set's two trials, plus sendHello,
// linkBreak and both multipath picks. The golden was generated by the commit before
// SRP's maps became rcommon.IDTable slabs (2f167c4).
//
// Regenerate (only for a documented behavior change):
// go test -run TestSRPTablesGoldenJSONL -update .
package slr_test

import (
	"testing"
	"time"

	"slr/internal/runner"
	"slr/internal/scenario"
	"slr/internal/spec"
)

const srpTablesGolden = "testdata/srp-tables.golden.jsonl"

func TestSRPTablesGoldenJSONL(t *testing.T) {
	sp, err := spec.Load("cmd/slrbench/workloads/table1-mid.json")
	if err != nil {
		t.Fatal(err)
	}
	base, err := sp.Params()
	if err != nil {
		t.Fatal(err)
	}
	base.Protocol = scenario.SRP
	base.Duration = 30 * time.Second
	var jobs []runner.Job
	for _, multipath := range []float64{1, 2} { // round-robin, random
		p := base
		p.ProtoParams = map[string]float64{
			"delete_period_seconds":        2,
			"active_route_timeout_seconds": 1,
			"hello_interval_seconds":       1,
			"multipath":                    multipath,
		}
		for _, j := range runner.TrialJobs(p, 2) {
			j.Index = len(jobs)
			jobs = append(jobs, j)
		}
	}
	checkGolden(t, srpTablesGolden, jobs)
}
