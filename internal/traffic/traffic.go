// Package traffic generates the paper's CBR workload: a fixed number of
// simultaneous constant-bit-rate flows between random endpoint pairs, each
// flow lasting an exponentially distributed time (mean 60 s), replaced by a
// fresh random flow when it ends. The evaluation uses 30 flows of 512-byte
// packets at 4 packets/s (120 pps network-wide).
package traffic

import (
	"fmt"
	"math/rand"
	"time"

	"slr/internal/netstack"
	"slr/internal/sim"
)

// Params configures the generator.
type Params struct {
	Flows      int      // concurrent flows (30 in the paper)
	PacketSize int      // bytes (512)
	Rate       float64  // packets per second per flow (4)
	MeanLife   sim.Time // mean exponential flow lifetime (60 s)
	// Model selects a registered packet-pacing model: "cbr" (the default
	// when empty), "poisson", or "onoff". See RegisterModel.
	Model string
	// ModelParams carries model-specific knobs (e.g. onoff's
	// "on_mean_seconds"); missing keys take documented defaults, and a
	// key the model does not have is an error (registry.ApplyParams).
	ModelParams map[string]float64
}

// Sender originates one application packet toward dst; implemented by
// netstack.Node.
type Sender interface {
	ID() netstack.NodeID
	SendData(pkt *netstack.DataPacket)
}

// Generator drives the CBR workload over a set of nodes.
type Generator struct {
	sim   *sim.Simulator
	rng   *rand.Rand
	nodes []Sender
	p     Params
	uid   uint64
	// flowSeq numbers flows from 1 across the whole run; every packet
	// carries its flow's id so the metrics collector can keep a per-flow
	// ledger (flow 0 is reserved for packets injected outside the
	// workload).
	flowSeq uint32
	end     sim.Time
	flows   int // live flows, for introspection
}

// NewGenerator returns a generator over nodes; traffic stops at end.
// An unregistered Params.Model panics: spec loading validates model names,
// so reaching here with one is a wiring bug.
func NewGenerator(s *sim.Simulator, rng *rand.Rand, nodes []Sender, p Params, end sim.Time) *Generator {
	// Surface a bad model or rate at construction, not first packet.
	if _, err := NewPacer(p); err != nil {
		panic(err)
	}
	// A non-positive lifetime would make every flow end the instant it
	// starts and startFlow recurse without bound.
	if p.MeanLife <= 0 {
		panic(fmt.Sprintf("traffic: mean flow lifetime %v must be positive", p.MeanLife))
	}
	return &Generator{sim: s, rng: rng, nodes: nodes, p: p, end: end}
}

// Live returns the number of currently active flows.
func (g *Generator) Live() int { return g.flows }

// Start launches the initial flows with a small random stagger so their
// packets do not synchronize.
func (g *Generator) Start() {
	for i := 0; i < g.p.Flows; i++ {
		delay := sim.Time(g.rng.Int63n(int64(time.Second)))
		g.sim.After(delay, g.startFlow)
	}
}

// startFlow picks random distinct endpoints and schedules its packet train.
func (g *Generator) startFlow() {
	if g.sim.Now() >= g.end || len(g.nodes) < 2 {
		return
	}
	src := g.nodes[g.rng.Intn(len(g.nodes))]
	dst := g.nodes[g.rng.Intn(len(g.nodes))]
	for dst.ID() == src.ID() {
		dst = g.nodes[g.rng.Intn(len(g.nodes))]
	}
	stop := min(g.sim.Now()+sim.Span(g.rng.ExpFloat64()*float64(g.p.MeanLife)), g.end)
	g.flows++
	g.flowSeq++
	flow := g.flowSeq
	pacer, err := NewPacer(g.p)
	if err != nil {
		panic(err) // NewGenerator validated the model; unreachable
	}
	var tick func()
	tick = func() {
		if g.sim.Now() >= stop {
			// Flow over: keep the population constant.
			g.flows--
			g.startFlow()
			return
		}
		g.uid++
		src.SendData(&netstack.DataPacket{
			UID:     g.uid,
			Flow:    flow,
			Src:     src.ID(),
			Dst:     dst.ID(),
			Size:    g.p.PacketSize,
			TTL:     netstack.DefaultTTL,
			Created: g.sim.Now(),
		})
		g.sim.After(pacer.Next(g.rng), tick)
	}
	tick()
}
