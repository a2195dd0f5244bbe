package runner

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"slr/internal/metrics"
	"slr/internal/scenario"
	"slr/internal/sim"
)

// Emitter is a streaming sink for completed trials. The runner serializes
// Emit calls and calls Flush once after the last job.
type Emitter interface {
	Emit(j Job, r scenario.Result) error
	Flush() error
}

// RecordSchema is the version stamped into every emitted Record. The
// schema is append-only: version 2 added "schema", the latency
// percentiles, the latency/hop histograms, and the per-flow ledger after
// the version-1 fields, and made "network_load" null for zero-delivery
// runs (see scenario.Result.NetworkLoad). Version-1 records are simply
// records without the "schema" key; readers treat a missing version as 1
// and a missing "network_load" value as NaN.
const RecordSchema = 2

// Record is the flat per-trial form written by the JSONL emitter and read
// back by cmd/slranalyze. Version-1 fields keep their exact
// serialization (order, names, formatting) so existing JSONL consumers and
// byte-level diffs keep working; new fields only ever append.
type Record struct {
	Protocol     string  `json:"protocol"`
	PauseSeconds float64 `json:"pause_seconds"`
	Trial        int     `json:"trial"`
	Seed         int64   `json:"seed"`
	// DeliveryRatio is delivered/sent.
	DeliveryRatio float64 `json:"delivery_ratio"`
	// NetworkLoad is control transmissions per delivered packet; nil
	// (serialized as null) when the run delivered nothing, the JSON form
	// of the NaN sentinel (JSON has no NaN literal).
	NetworkLoad *float64 `json:"network_load"`
	LatencySec  float64  `json:"latency_sec"`
	MACDrops    float64  `json:"mac_drops_per_node"`
	AvgSeqno    float64  `json:"avg_seqno"`
	MeanHops    float64  `json:"mean_hops"`
	DataSent    uint64   `json:"data_sent"`
	DataRecv    uint64   `json:"data_recv"`
	ControlTx   uint64   `json:"control_tx"`
	Collisions  uint64   `json:"collisions"`
	MaxDenom    uint32   `json:"max_denom,omitempty"`
	// DropReasons is the routing-layer drop breakdown, sorted by reason
	// so the serialized form is byte-stable across processes (Go
	// randomizes map iteration; a map field here would emit rows that
	// differ run to run and defeat output diffing).
	DropReasons []ReasonCount `json:"drop_reasons,omitempty"`

	// Version-2 fields (appended; see RecordSchema).

	// Schema is the record version, RecordSchema at write time.
	Schema int `json:"schema"`
	// LatencyP50/P95/P99 are exact histogram bucket-bound percentiles of
	// delivered-packet latency, in seconds.
	LatencyP50 float64 `json:"latency_p50_sec"`
	LatencyP95 float64 `json:"latency_p95_sec"`
	LatencyP99 float64 `json:"latency_p99_sec"`
	// LatencyHist is the sparse latency histogram (µs, log2 buckets) and
	// LatencySumUS its exact-mean accumulator; merging these across trials
	// reproduces in-process percentile aggregation bit for bit.
	LatencyHist  []metrics.HistBucket `json:"latency_hist_us,omitempty"`
	LatencySumUS uint64               `json:"latency_sum_us,omitempty"`
	// HopsHist is the sparse hop-count histogram with its accumulator.
	HopsHist []metrics.HistBucket `json:"hops_hist,omitempty"`
	HopsSum  uint64               `json:"hops_sum,omitempty"`
	// Flows is the per-flow ledger in flow-id order.
	Flows []FlowRecord `json:"flows,omitempty"`
}

// FlowRecord is one traffic flow's ledger in a Record.
type FlowRecord struct {
	Flow uint32 `json:"flow"`
	Sent uint64 `json:"sent"`
	Recv uint64 `json:"recv"`
	// FirstRecvSec/LastRecvSec are the virtual times (seconds) of the
	// flow's first and last delivery; omitted while Recv is zero.
	FirstRecvSec float64 `json:"first_recv_sec,omitempty"`
	LastRecvSec  float64 `json:"last_recv_sec,omitempty"`
}

// ReasonCount is one drop-reason tally in a Record.
type ReasonCount struct {
	Reason string `json:"reason"`
	Count  uint64 `json:"count"`
}

// sortedDropReasons flattens a drop-reason map into reason-sorted pairs.
func sortedDropReasons(m map[string]uint64) []ReasonCount {
	if len(m) == 0 {
		return nil
	}
	out := make([]ReasonCount, 0, len(m))
	for reason, count := range m {
		out = append(out, ReasonCount{Reason: reason, Count: count})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Reason < out[j].Reason })
	return out
}

// flowRecords flattens the per-flow ledger.
func flowRecords(flows []metrics.FlowStat) []FlowRecord {
	if len(flows) == 0 {
		return nil
	}
	out := make([]FlowRecord, len(flows))
	for i, fs := range flows {
		out[i] = FlowRecord{
			Flow:         fs.Flow,
			Sent:         fs.Sent,
			Recv:         fs.Recv,
			FirstRecvSec: fs.FirstRecv.Seconds(),
			LastRecvSec:  fs.LastRecv.Seconds(),
		}
	}
	return out
}

// NewRecord flattens one trial.
func NewRecord(j Job, r scenario.Result) Record {
	rec := Record{
		Protocol:      string(r.Protocol),
		PauseSeconds:  r.Pause.Seconds(),
		Trial:         j.Trial,
		Seed:          r.Seed,
		DeliveryRatio: r.DeliveryRatio,
		LatencySec:    r.Latency,
		MACDrops:      r.MACDrops,
		AvgSeqno:      r.AvgSeqno,
		MeanHops:      r.MeanHops,
		DataSent:      r.DataSent,
		DataRecv:      r.DataRecv,
		ControlTx:     r.ControlTx,
		Collisions:    r.Collisions,
		MaxDenom:      r.MaxDenom,
		DropReasons:   sortedDropReasons(r.DropReasons),
		Schema:        RecordSchema,
		LatencyP50:    r.LatencyP50,
		LatencyP95:    r.LatencyP95,
		LatencyP99:    r.LatencyP99,
		LatencyHist:   r.LatencyHist.Buckets(),
		LatencySumUS:  r.LatencyHist.Sum,
		HopsHist:      r.HopHist.Buckets(),
		HopsSum:       r.HopHist.Sum,
		Flows:         flowRecords(r.Flows),
	}
	if !math.IsNaN(r.NetworkLoad) {
		v := r.NetworkLoad
		rec.NetworkLoad = &v
	}
	return rec
}

// Result reconstructs the scenario.Result a Record was flattened from, the
// inverse of NewRecord used by the offline aggregator (cmd/slranalyze) to
// rebuild tables from sweep JSONL without re-simulating. Fields the Record
// does not carry (loop checks, control breakdown, MAC drop split) stay
// zero; flow delivery times round-trip through seconds.
func (r Record) Result() scenario.Result {
	res := scenario.Result{
		Protocol:      scenario.ProtocolName(r.Protocol),
		Pause:         seconds(r.PauseSeconds),
		Seed:          r.Seed,
		DeliveryRatio: r.DeliveryRatio,
		NetworkLoad:   math.NaN(),
		Latency:       r.LatencySec,
		MACDrops:      r.MACDrops,
		AvgSeqno:      r.AvgSeqno,
		MeanHops:      r.MeanHops,
		DataSent:      r.DataSent,
		DataRecv:      r.DataRecv,
		ControlTx:     r.ControlTx,
		Collisions:    r.Collisions,
		MaxDenom:      r.MaxDenom,
		LatencyP50:    r.LatencyP50,
		LatencyP95:    r.LatencyP95,
		LatencyP99:    r.LatencyP99,
		LatencyHist:   metrics.HistFromBuckets(r.LatencyHist, r.LatencySumUS),
		HopHist:       metrics.HistFromBuckets(r.HopsHist, r.HopsSum),
	}
	if r.NetworkLoad != nil {
		res.NetworkLoad = *r.NetworkLoad
	}
	// Version-1 writers had no NaN sentinel: their zero-delivery records
	// carry the raw ControlTx count in network_load (the bug the sentinel
	// replaced). Normalize on read so archived sweeps analyze with the
	// same exclusion semantics as fresh ones.
	if r.Schema < 2 && r.DataRecv == 0 && r.ControlTx > 0 {
		res.NetworkLoad = math.NaN()
	}
	if len(r.DropReasons) > 0 {
		res.DropReasons = make(map[string]uint64, len(r.DropReasons))
		for _, rc := range r.DropReasons {
			res.DropReasons[rc.Reason] = rc.Count
		}
	}
	if len(r.Flows) > 0 {
		res.Flows = make([]metrics.FlowStat, len(r.Flows))
		for i, fr := range r.Flows {
			res.Flows[i] = metrics.FlowStat{
				Flow:      fr.Flow,
				Sent:      fr.Sent,
				Recv:      fr.Recv,
				FirstRecv: seconds(fr.FirstRecvSec),
				LastRecv:  seconds(fr.LastRecvSec),
			}
		}
	}
	return res
}

// seconds converts one of a record's seconds fields: sim.Seconds, which
// SalvageRecords has checked it against (checkSeconds), so a value it
// refuses reads as 0 only in a Record built by hand.
func seconds(v float64) sim.Time {
	t, _ := sim.Seconds(v)
	return t
}

// checkSeconds refuses a record whose seconds fields sim.Seconds refuses,
// naming the field: a sweep never writes one, and Result would misread
// it.
func (r Record) checkSeconds() error {
	if _, err := sim.Seconds(r.PauseSeconds); err != nil {
		return fmt.Errorf("pause_seconds %w", err)
	}
	for _, f := range r.Flows {
		if _, err := sim.Seconds(f.FirstRecvSec); err != nil {
			return fmt.Errorf("flow %d first_recv_sec %w", f.Flow, err)
		}
		if _, err := sim.Seconds(f.LastRecvSec); err != nil {
			return fmt.Errorf("flow %d last_recv_sec %w", f.Flow, err)
		}
	}
	return nil
}

// JSONLEmitter streams one JSON object per line per completed trial.
type JSONLEmitter struct {
	bw  *bufio.Writer
	enc *json.Encoder
}

// NewJSONL returns a JSONL emitter writing to w.
func NewJSONL(w io.Writer) *JSONLEmitter {
	bw := bufio.NewWriter(w)
	return &JSONLEmitter{bw: bw, enc: json.NewEncoder(bw)}
}

// Emit writes one trial as a JSON line.
func (e *JSONLEmitter) Emit(j Job, r scenario.Result) error {
	return e.enc.Encode(NewRecord(j, r))
}

// Flush flushes buffered lines.
func (e *JSONLEmitter) Flush() error { return e.bw.Flush() }

// ReadRecords decodes a JSONL stream of Records, one newline-terminated
// record per line (blank lines skipped). On damaged input it returns the
// complete records before the damage along with the error — the same
// salvage semantics every reader shares (see SalvageRecords); strict
// callers treat any error as fatal, salvage-aware ones (cmd/slranalyze,
// the resume path) analyze what came back.
func ReadRecords(r io.Reader) ([]Record, error) {
	recs, _, err := SalvageRecords(r)
	return recs, err
}
