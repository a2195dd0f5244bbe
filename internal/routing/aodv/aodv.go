// Package aodv implements the Ad hoc On-demand Distance Vector protocol
// (Perkins, Belding-Royer, Das; IETF draft-ietf-manet-aodv-10), the primary
// baseline of the paper's evaluation.
//
// AODV prevents loops with per-destination sequence numbers and hop counts:
// a route may only be replaced by one with a fresher destination sequence
// number, or an equal one and a smaller hop count. A node that loses a
// route must increment the destination sequence number it requests, which
// usually makes it a local maximum — only the destination (or a node with a
// fresher route) can answer, so repairs are frequently network-wide floods.
// This is the behaviour Fig. 7 of the paper quantifies.
package aodv

import (
	"sort"
	"time"

	"slr/internal/netstack"
	"slr/internal/routing/rcommon"
	"slr/internal/sim"
)

// Config holds AODV's constants, the ones LDR and SRP run under too
// for a fair comparison (§V).
type Config = rcommon.RouteConfig

// DefaultConfig returns the constants used in the evaluation.
func DefaultConfig() Config { return rcommon.DefaultRouteConfig() }

// ConfigFromParams returns DefaultConfig with the spec-level overrides in
// params applied; see rcommon.RouteConfigFromParams.
func ConfigFromParams(params map[string]float64) (Config, error) {
	return rcommon.RouteConfigFromParams("aodv", params)
}

// rreq is the AODV route request.
type rreq struct {
	Src        netstack.NodeID
	SrcSeq     uint32
	RreqID     uint32
	Dst        netstack.NodeID
	DstSeq     uint32
	UnknownSeq bool
	HopCount   int
	TTL        int
	Flood      *rcommon.Flood // duplicate record, shared by every copy
}

// rrep is the route reply.
type rrep struct {
	Src      netstack.NodeID // RREQ originator (reply travels toward it)
	Dst      netstack.NodeID
	DstSeq   uint32
	HopCount int
	Lifetime sim.Time
}

// rerr lists unreachable destinations with their invalidated sequence
// numbers.
type rerr struct {
	Dests []rerrDest
}

type rerrDest struct {
	Dst netstack.NodeID
	Seq uint32
}

// Wire sizes per the AODV draft.
const (
	rreqSize     = 24
	rrepSize     = 20
	rerrBaseSize = 4
	rerrPerDest  = 8
)

func (e *rerr) size() int { return rerrBaseSize + rerrPerDest*len(e.Dests) }

// routeEntry is a routing-table row.
type routeEntry struct {
	seq      uint32
	validSeq bool
	hops     int
	nextHop  netstack.NodeID
	valid    bool
	expiry   sim.Time
	// precursor: some neighbor was sent an intermediate or forwarded
	// reply for this route. RERRs are broadcast, so who does not matter.
	precursor bool
}

// Protocol is one node's AODV instance.
type Protocol struct {
	netstack.BaseProtocol
	cfg  *Config
	node *netstack.Node
	self netstack.NodeID

	seq    uint32 // own sequence number, starts at 0 (Fig. 7 baseline)
	rreqID uint32
	// table holds the routes update made: only update adds an entry.
	table map[netstack.NodeID]*routeEntry
	// swept is the instant of the last 10 s sweep, which is when RREQ
	// sightings expire (rcommon.Flood).
	swept sim.Time
	// disc runs route discovery: queues, RREQ rate limit, retries and
	// hold-down.
	disc rcommon.DiscoveryTable
	// rerrLimit enforces RERR_RATELIMIT.
	rerrLimit rcommon.RateLimiter
	sweeper   rcommon.Beaconer
}

var _ netstack.Protocol = (*Protocol)(nil)

// New returns an AODV instance running under cfg, which the instances of a
// trial share: nothing writes it after configuration.
func New(cfg *Config) *Protocol {
	p := &Protocol{
		cfg:       cfg,
		table:     make(map[netstack.NodeID]*routeEntry),
		rerrLimit: rcommon.RateLimiter{Cap: 10},
	}
	p.disc = rcommon.NewDiscoveryTable(&cfg.DiscoveryConfig, p.solicit, p.repairFailed)
	return p
}

// Attach implements netstack.Protocol.
func (p *Protocol) Attach(n *netstack.Node) {
	p.node = n
	p.self = n.ID()
	p.disc.Attach(n)
}

// Start implements netstack.Protocol. Starting twice is a no-op.
func (p *Protocol) Start() {
	p.sweeper.StartEvery(p.node, 10*time.Second, func() {
		p.swept = p.node.Now()
	})
}

// SeqnoDelta reports this node's own sequence number, which starts at zero
// (the Fig. 7 metric).
func (p *Protocol) SeqnoDelta() uint64 { return uint64(p.seq) }

// SuccessorsOf exposes the next hop for loop checking.
func (p *Protocol) SuccessorsOf(dst netstack.NodeID) []netstack.NodeID {
	if e, ok := p.table[dst]; ok && e.valid && e.expiry > p.node.Now() {
		return []netstack.NodeID{e.nextHop}
	}
	return nil
}

// liveRoute returns the valid, unexpired entry for dst.
func (p *Protocol) liveRoute(dst netstack.NodeID) (*routeEntry, bool) {
	e, ok := p.table[dst]
	if !ok || !e.valid || e.expiry <= p.node.Now() {
		return nil, false
	}
	return e, true
}

// --- Data plane -------------------------------------------------------

// OriginateData implements netstack.Protocol.
func (p *Protocol) OriginateData(pkt *netstack.DataPacket) {
	if !p.forward(pkt) {
		p.disc.Enqueue(pkt, false)
	}
}

// forward sends pkt along the live route to its destination, refreshing
// the route; it reports false when there is none.
func (p *Protocol) forward(pkt *netstack.DataPacket) bool {
	e, ok := p.liveRoute(pkt.Dst)
	if ok {
		p.useRoute(e)
		p.node.ForwardData(e.nextHop, pkt)
	}
	return ok
}

// RecvData implements netstack.Protocol.
func (p *Protocol) RecvData(from netstack.NodeID, pkt *netstack.DataPacket) {
	e, ok := p.liveRoute(pkt.Dst)
	if !ok {
		seq := uint32(0)
		if old, exists := p.table[pkt.Dst]; exists {
			seq = old.seq
		}
		out := &rerr{Dests: []rerrDest{{Dst: pkt.Dst, Seq: seq}}}
		p.node.UnicastControl(from, out.size(), out)
		p.node.DropData(pkt, netstack.DropNoRoute)
		return
	}
	p.useRoute(e)
	// Refresh the reverse route toward the source as the draft requires.
	if rev, ok := p.liveRoute(pkt.Src); ok {
		p.useRoute(rev)
	}
	p.node.ForwardData(e.nextHop, pkt)
}

func (p *Protocol) useRoute(e *routeEntry) {
	e.expiry = p.node.Now() + p.cfg.ActiveRouteTimeout
}

// solicit broadcasts a RREQ for pd's destination with the TTL the
// discovery table picked.
func (p *Protocol) solicit(pd *rcommon.Discovery, ttl int) {
	// "Immediately before a node originates a route discovery, it MUST
	// increment its own sequence number."
	p.seq++
	p.rreqID++

	r := &rreq{
		Src:    p.self,
		SrcSeq: p.seq,
		RreqID: p.rreqID,
		Dst:    pd.Dst,
		TTL:    ttl,
		Flood:  rcommon.NewFlood(p.node.Now(), p.node.NetworkSize()),
	}
	if e, ok := p.table[pd.Dst]; ok && e.validSeq {
		r.DstSeq = e.seq
	} else {
		r.UnknownSeq = true
	}
	p.node.BroadcastControl(rreqSize, r)
}

// repairFailed runs when an abandoned discovery was a local repair:
// invalidate the route and report upstream.
func (p *Protocol) repairFailed(pd *rcommon.Discovery) {
	e, ok := p.table[pd.Dst]
	if !pd.Repair || !ok {
		return
	}
	if e.valid {
		e.valid = false
		e.seq++
	}
	p.propagateRERR(e.report(pd.Dst, nil))
}

// --- Control plane ----------------------------------------------------

// RecvControl implements netstack.Protocol.
func (p *Protocol) RecvControl(from netstack.NodeID, msg any) {
	switch m := msg.(type) {
	case *rreq:
		p.handleRREQ(from, m)
	case *rrep:
		p.handleRREP(from, m)
	case *rerr:
		p.handleRERR(from, m)
	}
}

func (p *Protocol) handleRREQ(from netstack.NodeID, r *rreq) {
	if r.Src == p.self {
		return
	}
	// Build/refresh the reverse route to the originator.
	p.update(r.Src, r.SrcSeq, true, r.HopCount+1, from)

	if !r.Flood.Witness(p.self, p.node.Now(), p.swept) {
		return
	}

	if r.Dst == p.self {
		// "If its own sequence number equals the RREQ's destination
		// sequence number, increment it."
		if !r.UnknownSeq && r.DstSeq >= p.seq {
			p.seq = r.DstSeq
			p.seq++
		}
		rep := &rrep{Src: r.Src, Dst: p.self, DstSeq: p.seq, HopCount: 0,
			Lifetime: p.cfg.ActiveRouteTimeout}
		p.node.UnicastControl(from, rrepSize, rep)
		return
	}
	// Intermediate reply: valid route with a sequence number at least as
	// fresh as requested.
	if e, ok := p.liveRoute(r.Dst); ok && e.validSeq && (r.UnknownSeq || rcommon.SeqGE(e.seq, r.DstSeq)) {
		e.precursor = true
		rep := &rrep{Src: r.Src, Dst: r.Dst, DstSeq: e.seq, HopCount: e.hops,
			Lifetime: e.expiry - p.node.Now()}
		p.node.UnicastControl(from, rrepSize, rep)
		return
	}
	// Relay.
	if r.TTL <= 1 {
		return
	}
	z := *r
	z.TTL--
	z.HopCount++
	if e, ok := p.table[r.Dst]; ok && e.validSeq && rcommon.SeqGE(e.seq, z.DstSeq) && !z.UnknownSeq {
		z.DstSeq = e.seq
	}
	jitter := sim.Time(p.node.Rand().Int63n(int64(10 * time.Millisecond)))
	p.node.BroadcastControlAfter(jitter, rreqSize, &z)
}

func (p *Protocol) handleRREP(from netstack.NodeID, rep *rrep) {
	// Install/refresh the forward route to the destination.
	if !p.update(rep.Dst, rep.DstSeq, true, rep.HopCount+1, from) {
		return
	}
	if rep.Src == p.self {
		p.disc.Complete(rep.Dst, p.forward)
		return
	}
	// Forward along the reverse route toward the originator.
	rev, ok := p.liveRoute(rep.Src)
	if !ok {
		return
	}
	p.useRoute(rev)
	p.table[rep.Dst].precursor = true
	y := *rep
	y.HopCount++
	p.node.UnicastControl(rev.nextHop, rrepSize, &y)
}

// update applies the draft's route-update rule: adopt when the sequence
// number is fresher, equal with fewer hops, or the entry is absent or
// invalid. It reports whether the entry now points via `next`.
func (p *Protocol) update(dst netstack.NodeID, seq uint32, validSeq bool, hops int, next netstack.NodeID) bool {
	if dst == p.self {
		return false
	}
	e, ok := p.table[dst]
	if !ok {
		e = &routeEntry{}
		p.table[dst] = e
	}
	adopt := !e.valid || !e.validSeq
	if !adopt && validSeq {
		adopt = rcommon.SeqGT(seq, e.seq) || (seq == e.seq && hops < e.hops)
	}
	if !adopt && e.valid && e.nextHop == next && e.seq == seq {
		p.useRoute(e) // same route refreshed
		return true
	}
	if !adopt {
		return e.valid && e.nextHop == next
	}
	e.seq = seq
	e.validSeq = validSeq
	e.hops = hops
	e.nextHop = next
	e.valid = true
	p.useRoute(e)
	return true
}

func (p *Protocol) handleRERR(from netstack.NodeID, e *rerr) {
	var lost []rerrDest
	for _, d := range e.Dests {
		ent, ok := p.table[d.Dst]
		if !ok || !ent.valid || ent.nextHop != from {
			continue
		}
		ent.valid = false
		if rcommon.SeqGT(d.Seq, ent.seq) {
			ent.seq = d.Seq
		}
		lost = ent.report(d.Dst, lost)
	}
	p.propagateRERR(lost)
}

// DataFailed implements netstack.Protocol: the MAC reported a broken link.
// The node attempts a local repair (§V: "AODV uses local repair"): the
// packet waits on a repair discovery, up to MaxSalvage times, before it is
// dropped; the routes lost are reported upstream either way.
func (p *Protocol) DataFailed(to netstack.NodeID, pkt *netstack.DataPacket) {
	lost := p.breakLink(to)
	if pkt.Salvaged < p.cfg.MaxSalvage {
		pkt.Salvaged++
		p.disc.Enqueue(pkt, true)
	} else {
		p.node.DropData(pkt, netstack.DropLinkLost)
	}
	p.propagateRERR(lost)
}

// ControlFailed implements netstack.Protocol.
func (p *Protocol) ControlFailed(to netstack.NodeID, msg any) {
	p.propagateRERR(p.breakLink(to))
}

// breakLink invalidates all routes through `to`, bumping their sequence
// numbers as the draft requires, and returns the route errors to report.
func (p *Protocol) breakLink(to netstack.NodeID) []rerrDest {
	var lost []rerrDest
	for dst, e := range p.table {
		if e.valid && e.nextHop == to {
			e.valid = false
			e.seq++
			lost = e.report(dst, lost)
		}
	}
	return lost
}

// report appends dst, whose route e was just invalidated, to dests if a
// precursor needs telling, and clears the mark: one RERR per invalidation.
func (e *routeEntry) report(dst netstack.NodeID, dests []rerrDest) []rerrDest {
	if !e.precursor {
		return dests
	}
	e.precursor = false
	return append(dests, rerrDest{Dst: dst, Seq: e.seq})
}

// propagateRERR broadcasts newly invalid destinations a precursor uses,
// capped at RERR_RATELIMIT (10 per second, RFC 3561 §10).
func (p *Protocol) propagateRERR(dests []rerrDest) {
	if len(dests) == 0 || !p.rerrLimit.Allow(p.node.Now()) {
		return
	}
	// Deterministic RERR content whatever the map order.
	sort.Slice(dests, func(i, j int) bool { return dests[i].Dst < dests[j].Dst })
	out := &rerr{Dests: dests}
	p.node.BroadcastControl(out.size(), out)
}
