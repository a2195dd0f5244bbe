// Per-seed byte-identity pin for all five protocols over the full stack on
// a Table-I-shaped run: 50 nodes in 1500×450 m with a 275 m unit-disk
// radio, waypoint pause 0 and 512-byte CBR flows, so every data packet
// goes through an RTS/CTS/DATA/ACK exchange that a dozen or more stations
// overhear. The other goldens pin one protocol (OLSR) or one radio
// (shadowing, SRP and AODV); this one is what a change to how the channel
// ends receptions, the MAC answers them or the kernel orders them must
// hold under every protocol at once. The golden was generated by the
// commit before the radio went to one end-of-air event per transmission
// (af05822).
//
// Regenerate (only for a documented behavior change):
// go test -run TestTable1GoldenJSONL -update .
package slr_test

import (
	"testing"
	"time"

	"slr/internal/runner"
	"slr/internal/scenario"
	"slr/internal/spec"
)

const table1Golden = "testdata/table1-small.golden.jsonl"

func TestTable1GoldenJSONL(t *testing.T) {
	// slrbench's Table I workload, cut to one 6 s trial per protocol.
	sp, err := spec.Load("cmd/slrbench/workloads/table1-mid.json")
	if err != nil {
		t.Fatal(err)
	}
	base, err := sp.Params()
	if err != nil {
		t.Fatal(err)
	}
	base.Duration = 6 * time.Second
	// Protocols in name order: a record starts with its protocol, so the
	// file is sorted as written and `sort | cmp` against a CLI capture works.
	var jobs []runner.Job
	for _, proto := range []scenario.ProtocolName{scenario.AODV, scenario.DSR, scenario.LDR, scenario.OLSR, scenario.SRP} {
		p := base
		p.Protocol = proto
		for _, j := range runner.TrialJobs(p, 1) {
			j.Index = len(jobs)
			jobs = append(jobs, j)
		}
	}
	checkGolden(t, table1Golden, jobs)
}
