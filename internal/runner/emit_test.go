package runner

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"slr/internal/metrics"
	"slr/internal/scenario"
)

// dropResult builds a result with a many-keyed drop-reason map, the field
// whose map iteration order used to leak into serialized output.
func dropResult() scenario.Result {
	return scenario.Result{
		Protocol: scenario.SRP,
		Seed:     3,
		DropReasons: map[string]uint64{
			"no-route": 4, "ttl": 1, "mac-retry": 9, "queue-full": 2,
			"loop": 7, "stale": 5, "cache-miss": 3, "filter": 8,
		},
	}
}

// TestEmitDropReasonsByteStable verifies repeated serialization of the
// same result is byte-identical: drop reasons are sorted, not emitted in
// map order.
func TestEmitDropReasonsByteStable(t *testing.T) {
	render := func() string {
		var js bytes.Buffer
		je := NewJSONL(&js)
		if err := je.Emit(Job{}, dropResult()); err != nil {
			t.Fatal(err)
		}
		if err := je.Flush(); err != nil {
			t.Fatal(err)
		}
		return js.String()
	}
	j0 := render()
	for i := 0; i < 20; i++ {
		if j := render(); j != j0 {
			t.Fatalf("iteration %d: serialization not byte-stable:\n%q\n%q", i, j, j0)
		}
	}
	if !strings.Contains(j0, `"drop_reasons":[`) {
		t.Fatalf("jsonl missing drop_reasons:\n%s", j0)
	}
	at := -1
	for _, reason := range []string{"cache-miss", "filter", "loop", "mac-retry", "no-route", "queue-full", "stale", "ttl"} {
		i := strings.Index(j0, `"reason":"`+reason+`"`)
		if i <= at {
			t.Fatalf("jsonl drop reasons not reason-sorted at %q:\n%s", reason, j0)
		}
		at = i
	}
	if !strings.Contains(j0, `"reason":"cache-miss","count":3`) {
		t.Fatalf("jsonl drop reason counts lost:\n%s", j0)
	}
}

// TestEmitZeroDeliverySentinel verifies the NaN network-load sentinel
// survives serialization: null in JSONL (JSON has no NaN), never a raw
// control-packet count.
func TestEmitZeroDeliverySentinel(t *testing.T) {
	r := scenario.Result{Protocol: scenario.SRP, NetworkLoad: math.NaN(), ControlTx: 500}
	var js bytes.Buffer
	je := NewJSONL(&js)
	if err := je.Emit(Job{}, r); err != nil {
		t.Fatal(err)
	}
	je.Flush()
	if !strings.Contains(js.String(), `"network_load":null`) {
		t.Fatalf("jsonl zero-delivery load not null:\n%s", js.String())
	}
	// And it reads back as the NaN sentinel.
	recs, err := ReadRecords(&js)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !math.IsNaN(recs[0].Result().NetworkLoad) {
		t.Fatalf("round trip lost the sentinel: %+v", recs)
	}
}

// TestV1ZeroDeliveryNormalizedOnRead verifies archived version-1 JSONL —
// whose zero-delivery records carry the raw ControlTx count in
// network_load — reads back as the NaN sentinel, so offline analysis of
// old sweeps gets the same exclusion semantics as fresh ones.
func TestV1ZeroDeliveryNormalizedOnRead(t *testing.T) {
	v1 := strings.NewReader(
		`{"protocol":"DSR","pause_seconds":0,"trial":0,"seed":1,"delivery_ratio":0,"network_load":500,"latency_sec":0,"data_sent":100,"data_recv":0,"control_tx":500}
{"protocol":"DSR","pause_seconds":0,"trial":1,"seed":2,"delivery_ratio":0.5,"network_load":2,"data_sent":100,"data_recv":50,"control_tx":100}
`)
	recs, err := ReadRecords(v1)
	if err != nil {
		t.Fatal(err)
	}
	if got := recs[0].Result().NetworkLoad; !math.IsNaN(got) {
		t.Errorf("v1 zero-delivery load = %v, want NaN sentinel (raw count must not skew averages)", got)
	}
	if got := recs[1].Result().NetworkLoad; got != 2 {
		t.Errorf("v1 defined load = %v, want 2 untouched", got)
	}
}

// TestRecordRoundTrip verifies Record.Result inverts NewRecord for every
// field the offline aggregator consumes, through actual JSONL bytes.
func TestRecordRoundTrip(t *testing.T) {
	r := scenario.Result{
		Protocol:      scenario.LDR,
		Pause:         30 * time.Second,
		Seed:          42,
		DeliveryRatio: 0.875,
		NetworkLoad:   1.25,
		Latency:       0.0625,
		MACDrops:      3.5,
		AvgSeqno:      2.25,
		MeanHops:      2.5,
		DataSent:      1000,
		DataRecv:      875,
		ControlTx:     1250,
		Collisions:    77,
		MaxDenom:      12,
		DropReasons:   map[string]uint64{"no-route": 5, "ttl": 1},
		LatencyP50:    0.016383,
		LatencyP95:    0.065535,
		LatencyP99:    0.131071,
		Flows: []metrics.FlowStat{
			{Flow: 1, Sent: 600, Recv: 500, FirstRecv: time.Second, LastRecv: 90 * time.Second},
			{Flow: 3, Sent: 400, Recv: 375, FirstRecv: 2 * time.Second, LastRecv: 80 * time.Second},
		},
	}
	for _, us := range []uint64{900, 14000, 14000, 120000} {
		r.LatencyHist.Observe(us)
	}
	for _, h := range []uint64{1, 2, 2, 4} {
		r.HopHist.Observe(h)
	}

	var buf bytes.Buffer
	e := NewJSONL(&buf)
	if err := e.Emit(Job{Trial: 7}, r); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Schema != RecordSchema || recs[0].Trial != 7 {
		t.Errorf("schema/trial = %d/%d", recs[0].Schema, recs[0].Trial)
	}
	got := recs[0].Result()
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, r)
	}
}

// TestEmitNoDropReasonsOmitted verifies an empty map stays out of the
// JSON line entirely.
func TestEmitNoDropReasonsOmitted(t *testing.T) {
	var js bytes.Buffer
	je := NewJSONL(&js)
	if err := je.Emit(Job{}, scenario.Result{Protocol: scenario.SRP}); err != nil {
		t.Fatal(err)
	}
	if err := je.Flush(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(js.String(), "drop_reasons") {
		t.Fatalf("empty drop reasons serialized: %s", js.String())
	}
}
