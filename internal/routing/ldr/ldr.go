// Package ldr implements Labeled Distance Routing (Garcia-Luna-Aceves,
// Mosko, Perkins — "A new approach to on-demand loop free routing in ad hoc
// networks", PODC 2003), the closest predecessor of SRP and a baseline of
// the paper's evaluation.
//
// LDR orders nodes by (destination sequence number, feasible distance): a
// neighbor advertising (sn', d') is a feasible successor when sn' is
// fresher, or equally fresh with d' below the node's feasible distance FD —
// the non-increasing minimum distance known in the current sequence-number
// era. Because integers are not dense, a broken path whose nodes cannot be
// re-ordered within the current era cannot be repaired locally: the route
// request must travel to the destination, which increments its sequence
// number to reset the ordering. SRP's contribution is precisely removing
// this limitation with a dense label set; Fig. 7 of the paper contrasts the
// resulting sequence-number growth (LDR low but nonzero, SRP zero).
package ldr

import (
	"sort"
	"time"

	"slr/internal/netstack"
	"slr/internal/routing/rcommon"
	"slr/internal/sim"
)

// infinity is the feasible distance of an unassigned node.
const infinity = int(^uint(0) >> 1)

// Config holds LDR's constants, the ones AODV and SRP run under too
// for a fair comparison (§V).
type Config = rcommon.RouteConfig

// DefaultConfig returns the constants used in the evaluation.
func DefaultConfig() Config { return rcommon.DefaultRouteConfig() }

// ConfigFromParams returns DefaultConfig with the spec-level overrides in
// params applied; see rcommon.RouteConfigFromParams.
func ConfigFromParams(params map[string]float64) (Config, error) {
	return rcommon.RouteConfigFromParams("ldr", params)
}

// rreq is the LDR route request: a solicitation carrying the requester's
// ordering (sequence number, feasible distance) and a reset flag.
type rreq struct {
	Src     netstack.NodeID
	RreqID  uint32
	Dst     netstack.NodeID
	DstSeq  uint64
	FD      int // constraint: minimum feasible distance along the path
	Unknown bool
	Reset   bool
	TTL     int
	D       int // hops traveled
	// Comp is the computation's record, shared by every copy and reply.
	Comp *rcommon.Computation[rreqState]
}

// rrep advertises a route with the replier's (sequence number, distance).
type rrep struct {
	Src      netstack.NodeID
	RreqID   uint32
	Dst      netstack.NodeID
	DstSeq   uint64
	D        int
	Lifetime sim.Time
	Comp     *rcommon.Computation[rreqState] // the answered RREQ's record
}

// rerr lists newly unreachable destinations.
type rerr struct {
	Dests []netstack.NodeID
}

// Wire sizes: AODV formats with 64-bit sequence numbers.
const (
	rreqSize     = 36
	rrepSize     = 28
	rerrBaseSize = 4
	rerrPerDest  = 12
)

func (e *rerr) size() int { return rerrBaseSize + rerrPerDest*len(e.Dests) }

// entry is the per-destination state: the ordering (sn, fd), measured
// distance, and single next hop (uni-path LDR, as simulated in the paper).
type entry struct {
	sn      uint64
	fd      int // feasible distance, non-increasing within an era
	d       int
	nextHop netstack.NodeID
	valid   bool
	expiry  sim.Time
}

// rreqState is a node's share of one route computation: the reverse
// path's last hop, the request's ordering, and whether the node has
// answered. It lives in the computation's own record, carried by the RREQ
// and its RREPs, and lasts until the node's first sweep at or after
// rcommon.FloodHold past its engagement.
type rreqState struct {
	lastHop netstack.NodeID
	reqSn   uint64
	reqFD   int
	replied bool
}

// Protocol is one node's LDR instance.
type Protocol struct {
	netstack.BaseProtocol
	cfg  *Config
	node *netstack.Node
	self netstack.NodeID

	mySeq    uint64 // own destination sequence number, starts at 0
	seqBumps uint64 // increments, the Fig. 7 metric
	rreqID   uint32
	// table holds the routes accept installed, each with a finite feasible
	// distance; a destination with no entry is unknown.
	table map[netstack.NodeID]*entry
	// swept is the instant of the last 10 s sweep, which is when
	// computation state expires (rcommon.Computation).
	swept sim.Time
	// disc runs route discovery: queues, RREQ rate limit, retries and
	// hold-down.
	disc rcommon.DiscoveryTable
	// rerrLimit enforces RERR_RATELIMIT.
	rerrLimit rcommon.RateLimiter
	sweeper   rcommon.Beaconer
}

var _ netstack.Protocol = (*Protocol)(nil)

// New returns an LDR instance running under cfg, which the instances of a
// trial share: nothing writes it after configuration.
func New(cfg *Config) *Protocol {
	p := &Protocol{
		cfg:       cfg,
		table:     make(map[netstack.NodeID]*entry),
		rerrLimit: rcommon.RateLimiter{Cap: 10},
	}
	p.disc = rcommon.NewDiscoveryTable(&cfg.DiscoveryConfig, p.solicit, nil)
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

// SeqnoDelta reports own-sequence-number increments (Fig. 7).
func (p *Protocol) SeqnoDelta() uint64 { return p.seqBumps }

// SuccessorsOf exposes the next hop for loop checking.
func (p *Protocol) SuccessorsOf(dst netstack.NodeID) []netstack.NodeID {
	if e, ok := p.live(dst); ok {
		return []netstack.NodeID{e.nextHop}
	}
	return nil
}

func (p *Protocol) live(dst netstack.NodeID) (*entry, bool) {
	e, ok := p.table[dst]
	if !ok || !e.valid || e.expiry <= p.node.Now() {
		return nil, false
	}
	return e, true
}

// --- Data plane -------------------------------------------------------

// OriginateData implements netstack.Protocol.
func (p *Protocol) OriginateData(pkt *netstack.DataPacket) { p.sendOrDiscover(pkt) }

// RecvData implements netstack.Protocol.
func (p *Protocol) RecvData(from netstack.NodeID, pkt *netstack.DataPacket) {
	e, ok := p.live(pkt.Dst)
	if !ok {
		out := &rerr{Dests: []netstack.NodeID{pkt.Dst}}
		p.node.UnicastControl(from, out.size(), out)
		p.node.DropData(pkt, netstack.DropNoRoute)
		return
	}
	e.expiry = p.node.Now() + p.cfg.ActiveRouteTimeout
	p.node.ForwardData(e.nextHop, pkt)
}

func (p *Protocol) sendOrDiscover(pkt *netstack.DataPacket) {
	if !p.forward(pkt) {
		p.disc.Enqueue(pkt, false)
	}
}

// forward sends pkt along the live route to its destination, refreshing
// the route; it reports false when there is none.
func (p *Protocol) forward(pkt *netstack.DataPacket) bool {
	e, ok := p.live(pkt.Dst)
	if ok {
		e.expiry = p.node.Now() + p.cfg.ActiveRouteTimeout
		p.node.ForwardData(e.nextHop, pkt)
	}
	return ok
}

// DataFailed implements netstack.Protocol: the link is declared broken, and
// the packet cache SRP also keeps resends the packet on a new route, up to
// MaxSalvage times.
func (p *Protocol) DataFailed(to netstack.NodeID, pkt *netstack.DataPacket) {
	p.linkBreak(to)
	if pkt.Salvaged >= p.cfg.MaxSalvage {
		p.node.DropData(pkt, netstack.DropLinkLost)
		return
	}
	pkt.Salvaged++
	p.sendOrDiscover(pkt)
}

// ControlFailed implements netstack.Protocol.
func (p *Protocol) ControlFailed(to netstack.NodeID, msg any) { p.linkBreak(to) }

func (p *Protocol) linkBreak(to netstack.NodeID) {
	var lost []netstack.NodeID
	for dst, e := range p.table {
		if e.valid && e.nextHop == to {
			e.valid = false
			lost = append(lost, dst)
		}
	}
	if len(lost) > 0 && p.rerrLimit.Allow(p.node.Now()) {
		// Deterministic RERR content whatever the map order.
		sort.Slice(lost, func(i, j int) bool { return lost[i] < lost[j] })
		out := &rerr{Dests: lost}
		p.node.BroadcastControl(out.size(), out)
	}
}

// --- Control plane ----------------------------------------------------

// solicit broadcasts a RREQ for pd's destination with the TTL the
// discovery table picked.
func (p *Protocol) solicit(pd *rcommon.Discovery, ttl int) {
	p.rreqID++
	r := &rreq{
		Src:    p.self,
		RreqID: p.rreqID,
		Dst:    pd.Dst,
		TTL:    ttl,
		Comp:   rcommon.NewComputation[rreqState](p.node.NetworkSize()),
	}
	if e, ok := p.table[pd.Dst]; ok {
		r.DstSeq = e.sn
		r.FD = e.fd
	} else {
		r.Unknown = true
		r.FD = infinity
	}
	p.node.BroadcastControl(rreqSize, r)
}

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
	st, fresh := r.Comp.Engage(p.self, p.node.Now(), p.swept, rcommon.FloodHold)
	if !fresh {
		return
	}
	*st = rreqState{lastHop: from, reqSn: r.DstSeq, reqFD: r.FD}

	if r.Dst == p.self {
		// Destination reply. A reset-required request forces a larger
		// sequence number — LDR's ordering reset.
		if r.Reset && r.DstSeq >= p.mySeq {
			p.mySeq = r.DstSeq + 1
			p.seqBumps++
		}
		rep := &rrep{Src: r.Src, RreqID: r.RreqID, Dst: p.self,
			DstSeq: p.mySeq, D: 0, Lifetime: p.cfg.ActiveRouteTimeout, Comp: r.Comp}
		p.node.UnicastControl(from, rrepSize, rep)
		return
	}

	// Intermediate reply: an active route that is in-order for the
	// request (fresher era, or same era below the FD constraint).
	if e, ok := p.live(r.Dst); ok && r.D+1 >= rcommon.MinReplyHops {
		inOrder := e.sn > r.DstSeq || r.Unknown ||
			(e.sn == r.DstSeq && e.fd < r.FD && !r.Reset)
		if inOrder {
			st.replied = true
			rep := &rrep{Src: r.Src, RreqID: r.RreqID, Dst: r.Dst,
				DstSeq: e.sn, D: e.d, Lifetime: p.cfg.ActiveRouteTimeout, Comp: r.Comp}
			p.node.UnicastControl(from, rrepSize, rep)
			return
		}
	}

	// Relay, strengthening the constraint (the integer analogue of
	// SRP's Eq. 10) and setting the reset flag when this node is
	// out-of-order and cannot be threaded into the current era — the
	// integer set is not dense, so there is no room to re-order it
	// (the situation SRP's mediant split removes).
	if r.TTL <= 1 {
		return
	}
	z := *r
	z.TTL--
	z.D++
	if e, ok := p.table[r.Dst]; ok {
		switch {
		case e.sn > r.DstSeq || r.Unknown:
			z.DstSeq, z.FD = e.sn, e.fd
			z.Unknown = false
			z.Reset = false
		case e.sn == r.DstSeq && e.fd < r.FD:
			z.FD = e.fd
		case e.sn == r.DstSeq:
			z.Reset = true
		}
	}
	jitter := sim.Time(p.node.Rand().Int63n(int64(10 * time.Millisecond)))
	p.node.BroadcastControlAfter(jitter, rreqSize, &z)
}

func (p *Protocol) handleRREP(from netstack.NodeID, rep *rrep) {
	// The originator never engages its own computation, so st is nil at
	// the terminus.
	st := rep.Comp.State(p.self, p.swept, rcommon.FloodHold)

	if !p.accept(from, rep) {
		// Infeasible advertisement: answer from the node's own route
		// when it is in-order for the cached request.
		if st != nil && !st.replied {
			if e, ok := p.live(rep.Dst); ok &&
				(e.sn > st.reqSn || (e.sn == st.reqSn && e.fd < st.reqFD)) {
				st.replied = true
				y := &rrep{Src: rep.Src, RreqID: rep.RreqID, Dst: rep.Dst,
					DstSeq: e.sn, D: e.d, Lifetime: p.cfg.ActiveRouteTimeout, Comp: rep.Comp}
				p.node.UnicastControl(st.lastHop, rrepSize, y)
			}
		}
		return
	}

	if rep.Src == p.self {
		p.disc.Complete(rep.Dst, p.forward)
		return
	}
	if st == nil || st.replied {
		return
	}
	// Forward only while the reply can still satisfy the request's
	// feasible-distance constraint (the Eq. 4 analogue): the new
	// distance must sit strictly below the carried minimum FD when the
	// eras match.
	e := p.table[rep.Dst]
	if e.sn == st.reqSn && e.d >= st.reqFD {
		return
	}
	st.replied = true
	y := &rrep{Src: rep.Src, RreqID: rep.RreqID, Dst: rep.Dst,
		DstSeq: e.sn, D: e.d, Lifetime: p.cfg.ActiveRouteTimeout, Comp: rep.Comp}
	p.node.UnicastControl(st.lastHop, rrepSize, y)
}

// accept applies the SNC update rule: adopt a fresher era, or a same-era
// route whose advertised distance is strictly below the stored feasible
// distance. It reports whether it installed the route; only then is an
// entry added.
func (p *Protocol) accept(from netstack.NodeID, rep *rrep) bool {
	if rep.Dst == p.self {
		return false
	}
	e, known := p.table[rep.Dst]
	if !known {
		e = &entry{fd: infinity}
	}
	switch {
	case rep.DstSeq > e.sn:
		e.sn = rep.DstSeq
		e.d = rep.D + 1
		e.fd = e.d // new era: feasible distance resets
	case rep.DstSeq == e.sn && rep.D < e.fd:
		e.d = rep.D + 1
		if e.d < e.fd {
			e.fd = e.d // FD is the minimum distance seen this era
		}
	default:
		return false
	}
	e.nextHop = from
	e.valid = true
	e.expiry = p.node.Now() + rep.Lifetime
	if !known {
		p.table[rep.Dst] = e
	}
	return true
}

func (p *Protocol) handleRERR(from netstack.NodeID, e *rerr) {
	var lost []netstack.NodeID
	for _, dst := range e.Dests {
		ent, ok := p.table[dst]
		if !ok || !ent.valid || ent.nextHop != from {
			continue
		}
		ent.valid = false
		lost = append(lost, dst)
	}
	if len(lost) > 0 && p.rerrLimit.Allow(p.node.Now()) {
		out := &rerr{Dests: lost}
		p.node.BroadcastControl(out.size(), out)
	}
}
