package runner

import (
	"math"
	"strings"
	"testing"
	"time"

	"slr/internal/scenario"
)

// TestKeyStringDistinct pins that String is injective over distinct
// keys, including pause values that do not render as short decimals and
// differ from a neighbour only in the last bit: the dedup maps and resume
// skip-sets key on the string, so two trials must never share one.
func TestKeyStringDistinct(t *testing.T) {
	keys := []Key{
		{},
		{Protocol: "SRP", Pause: 0, Trial: 0, Seed: 1},
		{Protocol: "OLSR", Pause: 7.5, Trial: 3, Seed: -42},
		{Protocol: "AODV", Pause: 50. / 900 * 900, Trial: 9, Seed: 1 << 40},
		{Protocol: "LDR", Pause: 0.3, Trial: 1, Seed: 0},
		{Protocol: "LDR", Pause: math.Nextafter(0.3, 1), Trial: 1, Seed: 0}, // 0.30000000000000004
		{Protocol: "DSR", Pause: math.MaxFloat64, Trial: math.MaxInt32, Seed: math.MinInt64},
		{Protocol: "X2", Pause: math.SmallestNonzeroFloat64, Trial: 0, Seed: 7},
	}
	seen := make(map[string]Key, len(keys))
	for _, k := range keys {
		s := k.String()
		if prev, dup := seen[s]; dup {
			t.Fatalf("keys %+v and %+v both render %q", prev, k, s)
		}
		seen[s] = k
	}
}

// TestKeyStringMatchesJSONRoundTrip verifies the codec's pause rendering
// agrees with the JSON encoder's: a key built from a Job and one built
// from the Job's emitted-and-reparsed Record render the same string.
func TestKeyStringMatchesJSONRoundTrip(t *testing.T) {
	p := tinyParams(scenario.SRP, 11)
	p.Mobility.Pause = time.Duration(float64(p.Duration) * 50 / 900) // awkward fraction
	jobs := TrialJobs(p, 2)
	var buf strings.Builder
	e := NewJSONL(&buf)
	for _, j := range jobs {
		if err := e.Emit(j, scenario.Result{Protocol: p.Protocol, Pause: j.Params.Mobility.Pause, Seed: j.Params.Seed}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range jobs {
		// NewRecord stamps Trial from the job but takes protocol, pause,
		// and seed from the Result, so this also guards NewRecord/Result
		// agreement.
		if js, rs := j.Key().String(), recs[i].Key().String(); js != rs {
			t.Fatalf("job %d key %q != re-read record key %q", i, js, rs)
		}
	}
}

// TestKeySetUsesCanonicalStrings pins that the skip-set and dedup share
// one key vocabulary: a record's set entry is exactly its Key.String().
func TestKeySetUsesCanonicalStrings(t *testing.T) {
	recs := []Record{
		{Protocol: "SRP", PauseSeconds: 2.5, Trial: 1, Seed: 3},
		{Protocol: "LDR", PauseSeconds: 0, Trial: 0, Seed: 9},
	}
	set := KeySet(recs)
	if len(set) != 2 {
		t.Fatalf("KeySet size %d, want 2", len(set))
	}
	for _, rec := range recs {
		want := rec.Key().String()
		if !set[want] {
			t.Fatalf("KeySet missing %q (has %v)", want, set)
		}
	}
}
