// Package scenario wires a complete simulation run: N nodes moving on a
// terrain, a routing protocol per node, a traffic workload, metrics
// collection, and optional continuous loop-freedom checking. It is the
// reproduction of the paper's GloMoSim experiment driver (§V):
// Params.Mobility, Params.Traffic.Model, and Params.Propagation select
// registered models, and internal/spec loads a complete Params from a
// declarative JSON scenario file. The evaluation's exact setup (random
// waypoint, CBR, unit-disk radio) is the built-in spec "paper-default".
package scenario

import (
	"fmt"
	"time"

	"slr/internal/geo"
	"slr/internal/metrics"
	"slr/internal/mobility"
	"slr/internal/netstack"
	"slr/internal/radio"
	"slr/internal/routing"
	"slr/internal/sim"
	"slr/internal/traffic"
)

// ProtocolName selects the routing protocol of a run; it must name an
// entry of the routing registry (slr/internal/routing).
type ProtocolName string

// The five protocols of the paper's evaluation.
const (
	SRP  ProtocolName = "SRP"
	LDR  ProtocolName = "LDR"
	AODV ProtocolName = "AODV"
	DSR  ProtocolName = "DSR"
	OLSR ProtocolName = "OLSR"
)

// AllProtocols lists the evaluation's protocols in the paper's order.
// Every entry resolves through the routing registry, and vice versa
// (enforced by a scenario test), so sweeps over AllProtocols cover the
// whole registry in a stable order.
var AllProtocols = []ProtocolName{SRP, LDR, AODV, DSR, OLSR}

// Params configures one run. The zero value is unusable; internal/spec
// resolves a scenario spec into a complete Params.
type Params struct {
	Protocol ProtocolName
	Nodes    int
	Terrain  geo.Terrain
	Range    float64
	// Deprecated: MinSpeed, MaxSpeed and Pause are unread; Mobility says
	// how nodes move. cmd/slrbench's traceParams still names them, in a
	// branch no spec-built Params reaches, and they go with that branch.
	MinSpeed float64
	MaxSpeed float64
	Pause    sim.Time
	Duration sim.Time
	Seed     int64
	Traffic  traffic.Params
	// CheckInvariants runs the per-destination successor-graph cycle
	// check every CheckEvery of simulated time.
	CheckInvariants bool
	// ProtoParams overrides the selected protocol's constants (spec
	// "protocol_params": durations in seconds, booleans as 0/1). Keys are
	// protocol-specific and validated by the routing registry; the
	// ablation benches toggle SRP heuristics through it.
	ProtoParams map[string]float64
	// Mobility selects a registered mobility model and carries its
	// speeds and pause; Run builds it for every node.
	Mobility mobility.Spec
	// Propagation optionally selects a registered radio propagation
	// model; the zero value is unit-disk at Range, the paper's radio.
	Propagation radio.PropSpec
}

// Result carries one run's measurements.
type Result struct {
	Protocol ProtocolName
	Pause    sim.Time
	Seed     int64

	DeliveryRatio float64
	NetworkLoad   float64
	Latency       float64 // seconds
	MACDrops      float64 // mean per node (Fig. 3)
	AvgSeqno      float64 // mean own-seqno increments per node (Fig. 7)
	MeanHops      float64

	DataSent   uint64
	DataRecv   uint64
	ControlTx  uint64
	Collisions uint64
	LoopChecks int
	LoopErrors []string
	MaxDenom   uint32 // largest SRP fraction denominator observed

	// Diagnostics: routing-layer drop reasons and the MAC drop split.
	DropReasons   map[string]uint64
	MACDropsRetry uint64
	MACDropsQueue uint64
	// RREQTx/RREPTx/RERRTx break down control traffic for protocols that
	// report it (SRP).
	RREQTx, RREPTx, RERRTx uint64

	// LatencyHist is the delivered-packet end-to-end latency histogram in
	// microseconds; LatencyP50/P95/P99 are its exact bucket-bound
	// percentiles in seconds (the latency tail Fig. 6's mean hides).
	LatencyHist metrics.Hist
	LatencyP50  float64
	LatencyP95  float64
	LatencyP99  float64
	// HopHist is the delivered-packet hop-count histogram.
	HopHist metrics.Hist
	// Flows is the per-flow ledger (sent/recv/first-last delivery), in
	// flow-id order.
	Flows []metrics.FlowStat
}

// seqnoReporter is implemented by SRP, LDR and AODV (Fig. 7's protocols).
type seqnoReporter interface{ SeqnoDelta() uint64 }

// denominatorReporter is implemented by SRP: the largest fraction
// denominator its orderings reached.
type denominatorReporter interface{ MaxDenominator() uint32 }

// controlReporter is implemented by protocols that split their control
// traffic by type.
type controlReporter interface {
	ControlBreakdown() (rreq, rrep, rerr uint64)
}

// SimHook, when non-nil, is called with each trial's Simulator right
// after creation, before any event is scheduled. The scheduler-gate tests
// in the repo root and slrsim's -ordercheck use it to enable the kernel's
// shadow order checker on full protocol scenarios; slrsim's -memprofile
// uses it to schedule a heap profile into a live trial.
var SimHook func(*sim.Simulator)

// Drain is the grace period a trial runs past its traffic, so in-flight
// packets count; a trial ends at Duration + Drain.
const Drain = 10 * time.Second

// CheckEvery is the simulated interval between loop checks of a trial
// run with CheckInvariants.
const CheckEvery = 5 * time.Second

// RadioParams returns the channel parameters a run of p builds its radio
// from: the paper's radio at p's range and propagation model, fading drawn
// from p's seed, and p's mobility speed bound.
func (p Params) RadioParams() radio.Params {
	rp := radio.DefaultParams()
	rp.Range = p.Range
	rp.Propagation = p.Propagation
	rp.Seed = p.Seed
	rp.MaxSpeed = p.Mobility.MaxSpeed
	return rp
}

// Run executes one simulation and returns its measurements.
func Run(p Params) Result {
	s := sim.New(p.Seed)
	if SimHook != nil {
		SimHook(s)
	}
	rp := p.RadioParams()

	// Mobility and traffic get RNG streams independent of the protocol
	// stack, and each node's mobility its own stream, so a seed fixes
	// one topology and one workload for every protocol — the paper's
	// offline-generated per-trial scripts. sim.NewRand is the one stream
	// constructor: its draws equal math/rand's per seed, so recorded seeds
	// replay unchanged, and a stream seeds only the state its draws touch,
	// so a node's stream costs what the node draws.
	models := make([]mobility.Model, p.Nodes)
	for i := range models {
		m, err := mobility.Build(p.Terrain, sim.NewRand(p.Seed<<16+int64(i)), p.Mobility)
		if err != nil {
			// Spec loading validates model names and parameters, so an
			// error here is a wiring bug.
			panic(err)
		}
		models[i] = m
	}
	build, err := routing.Resolve(routing.Spec{Name: string(p.Protocol), Params: p.ProtoParams})
	if err != nil {
		// Spec loading validates protocol names and parameters, so an
		// error here is a wiring bug.
		panic(fmt.Sprintf("scenario: %v", err))
	}
	net := netstack.NewNetwork(s, rp, models, func(netstack.NodeID) netstack.Protocol { return build() })
	net.StartAll()
	ch, mx := net.Ch, net.MX
	senders := make([]traffic.Sender, p.Nodes)
	for i, n := range net.Nodes {
		senders[i] = n
	}

	trafRng := sim.NewRand(p.Seed<<16 + int64(p.Nodes) + 1)
	gen := traffic.NewGenerator(s, trafRng, senders, p.Traffic, p.Duration)
	gen.Start()

	res := Result{Protocol: p.Protocol, Pause: p.Mobility.Pause, Seed: p.Seed}

	if p.CheckInvariants {
		var check func()
		check = func() {
			if err := net.CheckLoopFree(); err != nil {
				res.LoopErrors = append(res.LoopErrors,
					fmt.Sprintf("t=%v: %v", s.Now(), err))
			}
			res.LoopChecks++
			if s.Now() < p.Duration {
				s.After(CheckEvery, check)
			}
		}
		s.After(CheckEvery, check)
	}

	s.RunUntil(p.Duration + Drain)

	res.DeliveryRatio = mx.DeliveryRatio()
	res.NetworkLoad = mx.NetworkLoad()
	res.Latency = mx.MeanLatency()
	res.MeanHops = mx.MeanHops()
	res.DataSent = mx.DataSent
	res.DataRecv = mx.DataRecv
	res.ControlTx = mx.ControlTx
	res.Collisions = ch.Collisions()
	res.LatencyHist = mx.LatencyHist
	res.LatencyP50, res.LatencyP95, res.LatencyP99 = mx.LatencyHist.PercentilesSec()
	res.HopHist = mx.HopHist
	res.Flows = mx.Flows()

	var drops uint64
	for _, n := range net.Nodes {
		st := n.Mac().Stats()
		drops += st.Drops()
		res.MACDropsRetry += st.DropsRetry
		res.MACDropsQueue += st.DropsQueue
	}
	res.MACDrops = float64(drops) / float64(p.Nodes)
	res.DropReasons = mx.DataDrops

	var seqSum uint64
	seqCount := 0
	for _, n := range net.Nodes {
		pr := n.Protocol()
		if sr, ok := pr.(seqnoReporter); ok {
			seqSum += sr.SeqnoDelta()
			seqCount++
		}
		if dr, ok := pr.(denominatorReporter); ok {
			if d := dr.MaxDenominator(); d > res.MaxDenom {
				res.MaxDenom = d
			}
		}
		if cr, ok := pr.(controlReporter); ok {
			q, r, e := cr.ControlBreakdown()
			res.RREQTx += q
			res.RREPTx += r
			res.RERRTx += e
		}
	}
	if seqCount > 0 {
		res.AvgSeqno = float64(seqSum) / float64(seqCount)
	}
	return res
}

// TrialSet aggregates per-trial results for one (protocol, pause) point.
type TrialSet struct {
	Protocol ProtocolName
	Pause    sim.Time
	Results  []Result
}

// Series extracts a metric across trials.
func (ts *TrialSet) Series(metric func(Result) float64) *metrics.Series {
	s := &metrics.Series{}
	for _, r := range ts.Results {
		s.Add(metric(r))
	}
	return s
}

// RunTrials runs `trials` independent runs of p (seeds p.Seed, p.Seed+1,
// ...) serially and returns them in seed order. The same seed produces the
// same topology and traffic for every protocol, matching the paper's fixed
// per-trial mobility and traffic scripts.
//
// RunTrials is the serial reference path: the worker pool in
// internal/runner must produce byte-identical results for the same seeds,
// and its regression tests compare against this loop. Use
// runner.Run(runner.TrialJobs(p, trials), opts) to saturate all cores.
func RunTrials(p Params, trials int) TrialSet {
	results := make([]Result, trials)
	for i := range results {
		tp := p
		tp.Seed = p.Seed + int64(i)
		results[i] = Run(tp)
	}
	return TrialSet{Protocol: p.Protocol, Pause: p.Mobility.Pause, Results: results}
}
