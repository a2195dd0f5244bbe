package main

import (
	"math/rand"
	"strings"
	"sync"
	"time"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/netstack"
	"slr/internal/radio"
	"slr/internal/routing"
	"slr/internal/scenario"
	"slr/internal/sim"
)

// The traced pass sees the layers from outside: every propagation,
// mobility and routing model is registered a second time under a
// "traced:" name that wraps the real one, and the traced jobs select the
// wrappers by name, so scenario.Run wires them in itself.
//
// LinkRange and Position are counted, not timed: a timer pair outweighs a
// ~40 ns call (timing every call measured 2.9x run time, counting 1.02x).
// Protocol callbacks are coarse enough to time, one in timedEvery: the
// clock pair costs ~160 ns, which over the two million callbacks of a
// flood-5000 pass was 6% of the pass when every one was timed.

const tracedPrefix = "traced:"

// counters is what the interposers record during one traced pass. Trials
// run one at a time on one goroutine (runner Workers: 1), so plain fields
// suffice.
type counters struct {
	linkRange   uint64
	position    uint64
	recvControl uint64
	recvData    uint64
	originate   uint64
	failed      uint64 // DataFailed + ControlFailed

	// timed is the inclusive time inside the outermost protocol callbacks
	// that were timed, one in timedEvery of the outermost many; depth
	// keeps a callback entered from another from being counted twice.
	timed     time.Duration
	outermost uint64
	depth     int
	timing    bool
	entered   time.Time
}

const timedEvery = 8

// callback estimates the inclusive time inside all protocol callbacks.
func (c counters) callback() time.Duration { return c.timed * timedEvery }

var traced counters

var registerOnce sync.Once

// registerTraced registers a wrapper for every model the three registries
// hold. routing.Build upper-cases the name it looks up, hence ToUpper.
func registerTraced() {
	registerOnce.Do(func() {
		for _, name := range radio.PropagationModels() {
			radio.RegisterPropagation(tracedPrefix+name, func(p radio.Params, s radio.PropSpec) (radio.Propagation, error) {
				s.Model = name
				p.Propagation = s
				inner, err := radio.NewPropagation(p)
				if err != nil {
					return nil, err
				}
				return tracedProp{inner}, nil
			})
		}
		for _, name := range mobility.Models() {
			mobility.Register(tracedPrefix+name, func(t geo.Terrain, rng *rand.Rand, s mobility.Spec) (mobility.Model, error) {
				s.Model = name
				inner, err := mobility.Build(t, rng, s)
				if err != nil {
					return nil, err
				}
				return tracedMobility{inner}, nil
			})
		}
		for _, name := range routing.Protocols() {
			routing.Register(strings.ToUpper(tracedPrefix)+name, func(params map[string]float64) (netstack.Protocol, error) {
				inner, err := routing.Build(routing.Spec{Name: name, Params: params})
				if err != nil {
					return nil, err
				}
				return &tracedProtocol{inner: inner}, nil
			})
		}
	})
}

// traceParams returns p with every model swapped for its traced wrapper.
func traceParams(p scenario.Params) scenario.Params {
	p.Protocol = scenario.ProtocolName(strings.ToUpper(tracedPrefix)) + p.Protocol
	if p.Mobility.Model == "" {
		// scenario.Run's legacy default, spelled out so it can be wrapped.
		p.Mobility = mobility.Spec{Model: "waypoint", MinSpeed: p.MinSpeed, MaxSpeed: p.MaxSpeed, Pause: p.Pause}
	}
	p.Mobility.Model = tracedPrefix + p.Mobility.Model
	if p.Propagation.Model == "" {
		p.Propagation.Model = "unit-disk"
	}
	p.Propagation.Model = tracedPrefix + p.Propagation.Model
	return p
}

type tracedProp struct{ inner radio.Propagation }

func (t tracedProp) MaxRange() float64 { return t.inner.MaxRange() }

func (t tracedProp) LinkRange(a, b radio.NodeID) float64 {
	traced.linkRange++
	return t.inner.LinkRange(a, b)
}

type tracedMobility struct{ inner mobility.Model }

func (t tracedMobility) Position(at sim.Time) geo.Point {
	traced.position++
	return t.inner.Position(at)
}

// tracedProtocol counts and times one node's protocol callbacks. It
// forwards the optional reporter interfaces scenario.Run probes for, so
// the traced Result stays comparable with the plain one (MaxDenom, which
// scenario reads through the concrete *srp.Protocol, is the exception).
type tracedProtocol struct{ inner netstack.Protocol }

func enter() {
	if traced.depth == 0 {
		traced.outermost++
		if traced.outermost%timedEvery == 0 {
			traced.timing = true
			traced.entered = time.Now()
		}
	}
	traced.depth++
}

func leave() {
	traced.depth--
	if traced.depth == 0 && traced.timing {
		traced.timing = false
		traced.timed += time.Since(traced.entered)
	}
}

func (t *tracedProtocol) Attach(n *netstack.Node) { t.inner.Attach(n) }

func (t *tracedProtocol) Start() {
	enter()
	t.inner.Start()
	leave()
}

func (t *tracedProtocol) OriginateData(pkt *netstack.DataPacket) {
	traced.originate++
	enter()
	t.inner.OriginateData(pkt)
	leave()
}

func (t *tracedProtocol) RecvData(from netstack.NodeID, pkt *netstack.DataPacket) {
	traced.recvData++
	enter()
	t.inner.RecvData(from, pkt)
	leave()
}

func (t *tracedProtocol) RecvControl(from netstack.NodeID, msg any) {
	traced.recvControl++
	enter()
	t.inner.RecvControl(from, msg)
	leave()
}

func (t *tracedProtocol) DataFailed(to netstack.NodeID, pkt *netstack.DataPacket) {
	traced.failed++
	enter()
	t.inner.DataFailed(to, pkt)
	leave()
}

func (t *tracedProtocol) DataAcked(to netstack.NodeID, pkt *netstack.DataPacket) {
	enter()
	t.inner.DataAcked(to, pkt)
	leave()
}

func (t *tracedProtocol) ControlFailed(to netstack.NodeID, msg any) {
	traced.failed++
	enter()
	t.inner.ControlFailed(to, msg)
	leave()
}

func (t *tracedProtocol) SeqnoDelta() uint64 {
	if r, ok := t.inner.(interface{ SeqnoDelta() uint64 }); ok {
		return r.SeqnoDelta()
	}
	return 0
}

func (t *tracedProtocol) ControlBreakdown() (rreq, rrep, rerr uint64) {
	if r, ok := t.inner.(interface {
		ControlBreakdown() (rreq, rrep, rerr uint64)
	}); ok {
		return r.ControlBreakdown()
	}
	return 0, 0, 0
}

func (t *tracedProtocol) SuccessorsOf(dst netstack.NodeID) []netstack.NodeID {
	if r, ok := t.inner.(interface {
		SuccessorsOf(netstack.NodeID) []netstack.NodeID
	}); ok {
		return r.SuccessorsOf(dst)
	}
	return nil
}
