package srp

import (
	"fmt"
	"math"
	"time"

	"slr/internal/core"
	"slr/internal/frac"
	"slr/internal/label"
	"slr/internal/netstack"
	"slr/internal/registry"
	"slr/internal/routing/rcommon"
	"slr/internal/sim"
)

// Config holds SRP's protocol constants and the heuristic switches that the
// ablation benchmarks toggle.
type Config struct {
	rcommon.RouteConfig // discovery and the route timeout, as AODV's and LDR's
	// DeletePeriod bounds control-packet age, ordering retention and
	// computation state (§III, 60 s).
	DeletePeriod sim.Time
	// MaxDenom triggers a destination-controlled path reset when the
	// terminus' fraction denominator exceeds it (§III, one billion).
	MaxDenom uint32
	// UseLie enables the understated RREQ ordering of §V.
	UseLie bool
	// UsePacketCache enables resending MAC-dropped packets on new routes.
	UsePacketCache bool
	// Labels is the fraction label set Algorithm 1 splits in (§II): the
	// paper's mediant (core.FracSet), the Stern–Brocot simplest fraction
	// of §VI (core.FareySet) or the next-element-only ablation; the
	// split key selects it (splitSets).
	Labels core.Set[frac.F]
	// Multipath selects the successor-choice policy for forwarding.
	Multipath PathPolicy
	// HelloInterval, when positive, broadcasts periodic Hello
	// advertisements carrying this node's orderings for destinations
	// with active routes (Procedure 3 handles Hello advertisements with
	// C = Unassigned). The paper's simulations run without hellos; this
	// is the protocol-complete option.
	HelloInterval sim.Time
}

// helloFanout caps the advertised destinations per Hello; a node with more
// active routes rotates through them over successive Hellos.
const helloFanout = 10

// DefaultConfig returns the configuration used in the paper's simulations.
func DefaultConfig() Config {
	return Config{
		RouteConfig:    rcommon.DefaultRouteConfig(),
		DeletePeriod:   60 * time.Second,
		MaxDenom:       1_000_000_000,
		UseLie:         true,
		UsePacketCache: true,
		Labels:         core.FracSet{},
		Multipath:      PolicyMinHop,
	}
}

// splitSets are the label sets the split key selects, by its value.
var splitSets = [...]core.Set[frac.F]{core.FracSet{}, core.FareySet{}, nextElementOnly{}}

// overrides is what SRP's spec-level keys set: the Config, max_denom as
// given, since it is range-checked before its uint32 conversion, and split
// as given, since it indexes splitSets.
type overrides struct {
	Config
	maxDenom int
	split    int
}

// appliers are SRP's spec-level keys, the shared route keys and SRP's own;
// see ConfigFromParams.
var appliers = rcommon.RouteAppliers(func(o *overrides) *rcommon.RouteConfig { return &o.RouteConfig },
	map[string]registry.Applier[overrides]{
		"delete_period_seconds":  registry.Seconds(func(o *overrides, v sim.Time) { o.DeletePeriod = v }),
		"max_denom":              registry.Int(func(o *overrides, v int) { o.maxDenom = v }),
		"use_lie":                registry.Bool(func(o *overrides, v bool) { o.UseLie = v }),
		"use_packet_cache":       registry.Bool(func(o *overrides, v bool) { o.UsePacketCache = v }),
		"split":                  registry.Int(func(o *overrides, v int) { o.split = v }),
		"multipath":              registry.Int(func(o *overrides, v int) { o.Multipath = PathPolicy(v) }),
		"hello_interval_seconds": registry.Seconds(func(o *overrides, v sim.Time) { o.HelloInterval = v }),
	})

// ConfigFromParams returns DefaultConfig with the spec-level overrides in
// params applied; durations arrive in seconds, booleans as 0/1, multipath
// as the PathPolicy ordinal (0 min-hop, 1 round-robin, 2 random) and split
// as the label set's (0 mediant, 1 Farey, 2 next-element only). Unknown
// keys and out-of-range values are errors.
func ConfigFromParams(params map[string]float64) (Config, error) {
	def := DefaultConfig()
	o, err := rcommon.Configure("srp", params, appliers, overrides{def, int(def.MaxDenom), 0}, overrides.validate)
	if err != nil {
		return Config{}, err
	}
	o.MaxDenom, o.Labels = uint32(o.maxDenom), splitSets[o.split]
	return o.Config, nil
}

// validate rejects configurations no deployment could run.
func (o overrides) validate(kind string) error {
	// Range-check before the uint32 conversion, so a negative or
	// oversized max_denom errors here instead of wrapping.
	if o.maxDenom < 2 || o.maxDenom > math.MaxUint32 {
		return fmt.Errorf("srp: max_denom %d must be in [2, %d]", o.maxDenom, uint32(math.MaxUint32))
	}
	if o.split < 0 || o.split >= len(splitSets) {
		return fmt.Errorf("srp: split %d unknown (0 mediant, 1 farey, 2 next-element only)", o.split)
	}
	if err := o.RouteConfig.Validate(kind); err != nil {
		return err
	}
	if o.DeletePeriod < o.ActiveRouteTimeout {
		// A route deleted before its neighbours' successor entries
		// expire can relabel above them: a loop (TestShortDeletePeriodLoops).
		return fmt.Errorf("srp: delete_period_seconds %v must be at least active_route_timeout_seconds %v",
			o.DeletePeriod.Seconds(), o.ActiveRouteTimeout.Seconds())
	}
	if o.HelloInterval != 0 && o.HelloInterval < time.Millisecond {
		// Start jitters hellos by Rand.Int63n(HelloInterval/4), which
		// needs a positive argument; a sub-millisecond beacon period is
		// nonsense anyway.
		return fmt.Errorf("srp: hello_interval %v must be 0 (disabled) or >= 1ms", o.HelloInterval)
	}
	if o.Multipath != PolicyMinHop && o.Multipath != PolicyRoundRobin && o.Multipath != PolicyRandom {
		return fmt.Errorf("srp: multipath policy %d unknown (0 min-hop, 1 round-robin, 2 random)", o.Multipath)
	}
	return nil
}

// Protocol is one node's SRP instance.
type Protocol struct {
	netstack.BaseProtocol
	cfg  *Config
	node *netstack.Node
	self netstack.NodeID

	// mySeq is this node's destination-controlled sequence number for
	// itself, starting at 1 (Definition 7); seqIncrements counts resets
	// for Fig. 7.
	mySeq         label.SeqNo
	seqIncrements uint64

	rreqID uint32
	// routes is keyed by destination id. A *route taken from it is valid
	// until the next Put or Delete (see rcommon.IDTable): nothing may hold
	// one across a call that can add a route, and no closure may capture
	// one. Computation state is not here: it travels in each RREQ's
	// rcommon.Computation record.
	routes rcommon.IDTable[route]
	// swept is the instant of the last 10 s sweep, which is when
	// computation state expires (rcommon.Computation).
	swept sim.Time
	// disc runs route discovery: queues, RREQ rate limit, retries and
	// hold-down.
	disc rcommon.DiscoveryTable
	// rerrLimit enforces RERR_RATELIMIT of the AODV framework SRP's
	// messaging follows.
	rerrLimit   rcommon.RateLimiter
	sweeper     rcommon.Beaconer
	helloBeacon rcommon.Beaconer
	started     bool
	// helloCursor rotates the helloFanout window over the (sorted) active
	// destinations, so which routes a HELLO advertises does not depend on
	// the order of the routes table.
	helloCursor uint32

	// stats for analysis.
	statRREQ, statRREP, statRERR uint64
	statOrderViolations          uint64
	maxDenomSeen                 uint32
}

var _ netstack.Protocol = (*Protocol)(nil)

// New returns an SRP instance running under cfg, which the instances of a
// trial share: nothing writes it after configuration.
func New(cfg *Config) *Protocol {
	p := &Protocol{
		cfg:       cfg,
		mySeq:     1,
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

// Start implements netstack.Protocol. SRP as simulated in the paper has no
// periodic messaging; only a slow sweep expires computation state and
// reclaims invalid routes.
// When HelloInterval is set, periodic Hello advertisements run too.
// Starting twice is a no-op.
func (p *Protocol) Start() {
	if p.started {
		return
	}
	p.started = true
	p.sweeper.StartEvery(p.node, 10*time.Second, p.sweep)

	if p.cfg.HelloInterval > 0 {
		p.helloBeacon.Start(p.node,
			sim.Time(p.node.Rand().Int63n(int64(p.cfg.HelloInterval))),
			func() sim.Time {
				jitter := sim.Time(p.node.Rand().Int63n(int64(p.cfg.HelloInterval) / 4))
				return p.cfg.HelloInterval + jitter
			},
			p.sendHello)
	}
}

// sendHello broadcasts this node's orderings for up to helloFanout active
// destinations.
func (p *Protocol) sendHello() {
	now := p.node.Now()
	var dsts []netstack.NodeID
	for i := 0; i < p.routes.Len(); i++ {
		if p.routes.At(i).active(now) {
			dsts = append(dsts, p.routes.KeyAt(i))
		}
	}
	sortNodeIDs(dsts)
	limit := min(len(dsts), helloFanout)
	h := &hello{}
	for k := 0; k < limit; k++ {
		dst := dsts[(int(p.helloCursor)+k)%len(dsts)]
		r := p.route(dst)
		h.Entries = append(h.Entries, helloEntry{Dst: dst, SN: r.order.SN, F: r.order.FD, D: int(r.dist)})
	}
	p.helloCursor += uint32(limit)
	if len(h.Entries) == 0 {
		return
	}
	p.node.BroadcastControl(h.size(), h)
}

// handleHello applies each advertised ordering via Procedure 3 with
// C = Unassigned.
func (p *Protocol) handleHello(from netstack.NodeID, h *hello) {
	for _, e := range h.Entries {
		if e.Dst == p.self {
			continue
		}
		adv := label.Order{SN: e.SN, FD: e.F}
		p.setRoute(from, e.Dst, adv, e.D+1, label.Unassigned, p.cfg.ActiveRouteTimeout)
	}
}

// SeqnoDelta reports how many times this node incremented its own sequence
// number (Fig. 7's metric; identically zero for SRP in the paper's runs).
func (p *Protocol) SeqnoDelta() uint64 { return p.seqIncrements }

// MaxDenominator reports the largest fraction denominator this node ever
// adopted (the paper observed a maximum below 840 million).
func (p *Protocol) MaxDenominator() uint32 { return p.maxDenomSeen }

// ControlBreakdown reports how many RREQ, RREP, and RERR transmissions this
// node made, for experiment diagnostics.
func (p *Protocol) ControlBreakdown() (rreq, rrep, rerr uint64) {
	return p.statRREQ, p.statRREP, p.statRERR
}

// OrderViolations reports how often the Theorem 1 guard rejected a relabel
// that breaks Definition 1 — zero in a correct implementation.
func (p *Protocol) OrderViolations() uint64 { return p.statOrderViolations }

func (p *Protocol) sweep() {
	now := p.node.Now()
	p.swept = now
	// Last slot first: Delete moves the last entry into the freed slot.
	for i := p.routes.Len() - 1; i >= 0; i-- {
		if r := p.routes.At(i); !r.active(now) && r.orderExpiry != 0 && r.orderExpiry <= now {
			p.routes.Delete(p.routes.KeyAt(i))
		}
	}
}

// route returns the route entry for dst, or nil. The pointer is into the
// routes slab: valid until the next setRoute that adds a destination, or
// the next sweep. Only setRoute adds one: forwarding and discovery read
// the table and take a missing route for one without a live successor.
func (p *Protocol) route(dst netstack.NodeID) *route {
	return p.routes.Get(uint32(dst))
}

// order returns this node's ordering for dst; for itself it is the
// destination label (mySeq, 0/1) per Definition 7.
func (p *Protocol) order(dst netstack.NodeID) label.Order {
	if dst == p.self {
		return label.Destination(p.mySeq)
	}
	return p.route(dst).ordering()
}

// --- Data plane -------------------------------------------------------

// OriginateData implements netstack.Protocol.
func (p *Protocol) OriginateData(pkt *netstack.DataPacket) {
	p.sendOrDiscover(pkt)
}

// RecvData implements netstack.Protocol.
func (p *Protocol) RecvData(from netstack.NodeID, pkt *netstack.DataPacket) {
	r := p.route(pkt.Dst)
	next, ok := r.pick(p.cfg.Multipath, p.node.Rand(), p.node.Now())
	if !ok {
		// §II route errors: unicast a RERR to the data packet's last
		// hop; it is repeated for each such packet, so no reliability
		// is needed.
		re := &rerr{Dests: []netstack.NodeID{pkt.Dst}}
		p.node.UnicastControl(from, re.size(), re)
		p.statRERR++
		p.node.DropData(pkt, netstack.DropNoRoute)
		return
	}
	p.refresh(r, next)
	p.node.ForwardData(next, pkt)
}

// sendOrDiscover forwards pkt if a route is active, else queues it behind a
// route discovery (Procedure 1).
func (p *Protocol) sendOrDiscover(pkt *netstack.DataPacket) {
	r := p.route(pkt.Dst)
	if next, ok := r.pick(p.cfg.Multipath, p.node.Rand(), p.node.Now()); ok {
		p.refresh(r, next)
		p.node.ForwardData(next, pkt)
		return
	}
	p.disc.Enqueue(pkt, false)
}

// refresh extends the lifetime of a successor in use.
func (p *Protocol) refresh(r *route, next netstack.NodeID) {
	if s := r.find(next); s != nil {
		s.expiry = p.node.Now() + p.cfg.ActiveRouteTimeout
	}
}

// DataFailed implements netstack.Protocol: link-layer loss detection. The
// next hop is declared broken for every destination, and the packet-cache
// heuristic reroutes the dropped packet (§V).
func (p *Protocol) DataFailed(to netstack.NodeID, pkt *netstack.DataPacket) {
	p.linkBreak(to)
	if !p.cfg.UsePacketCache || pkt.Salvaged >= p.cfg.MaxSalvage {
		p.node.DropData(pkt, netstack.DropLinkLost)
		return
	}
	pkt.Salvaged++
	p.sendOrDiscover(pkt)
}

// ControlFailed implements netstack.Protocol: a lost unicast control packet
// also marks the link broken. RREPs are not retransmitted; the requester's
// retry timer recovers.
func (p *Protocol) ControlFailed(to netstack.NodeID, msg any) {
	p.linkBreak(to)
}

// linkBreak removes `to` as successor for all destinations and broadcasts a
// RERR for those that became invalid.
func (p *Protocol) linkBreak(to netstack.NodeID) {
	now := p.node.Now()
	var lost []netstack.NodeID
	for i := 0; i < p.routes.Len(); i++ {
		r := p.routes.At(i)
		if r.find(to) == nil {
			continue
		}
		if r.dropSuccessor(to, now) {
			r.orderExpiry = now + p.cfg.DeletePeriod
			lost = append(lost, p.routes.KeyAt(i))
		}
	}
	if len(lost) > 0 && p.rerrLimit.Allow(now) {
		sortNodeIDs(lost) // RERR content independent of the table's order
		e := &rerr{Dests: lost}
		p.node.BroadcastControl(e.size(), e)
		p.statRERR++
	}
}

// --- Solicitation (Procedures 1 and 2) --------------------------------

// solicit issues a RREQ for pd's destination (Procedure 1) with the TTL
// the discovery table picked.
func (p *Protocol) solicit(pd *rcommon.Discovery, ttl int) {
	p.rreqID++
	r := &rreq{
		Src:    p.self,
		RreqID: p.rreqID,
		Dst:    pd.Dst,
		TTL:    ttl,
		Comp:   rcommon.NewComputation[rreqState](p.node.NetworkSize()),
		// Advertisement for self: own destination label.
		SrcSeq:   p.mySeq,
		LF:       frac.Zero,
		LD:       0,
		Lifetime: p.cfg.ActiveRouteTimeout,
	}
	if o := p.order(pd.Dst); !o.IsUnassigned() {
		r.DstSeq = o.SN
		r.F = o.FD
		if p.cfg.UseLie {
			r.F = lie(o.FD)
		}
	} else {
		r.Flags |= flagU
	}
	p.statRREQ++
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
	case *hello:
		p.handleHello(from, m)
	}
}

// handleRREQ implements Procedure 2 (relay solicitation) plus destination
// and intermediate replies (SDC).
func (p *Protocol) handleRREQ(from netstack.NodeID, r *rreq) {
	if r.Age >= p.cfg.DeletePeriod || r.Src == p.self {
		return
	}
	// Process the advertisement piece for the source (Procedure 3 with
	// C = Unassigned), building or refreshing the reverse route.
	if r.Flags&flagN == 0 {
		p.setRoute(from, r.Src, r.srcOrder(), r.LD+1, label.Unassigned, r.Lifetime)
	}

	st, passive := r.Comp.Engage(p.self, p.node.Now(), p.swept, p.cfg.DeletePeriod)
	if !passive {
		return // only passive nodes may become engaged (§III)
	}
	*st = rreqState{cached: r.order(), lastHop: int32(from)}

	if r.Dst == p.self {
		p.destinationReply(from, r)
		return
	}
	if r.Flags&flagD == 0 && p.satisfiesSDC(r) {
		st.replied = true
		p.intermediateReply(from, r)
		return
	}
	p.relayRREQ(from, r)
}

// destinationReply answers a solicitation for this node (§III: "The
// destination T may respond to any solicitation for itself"). A set reset
// bit or a D-bit probe forces a larger sequence number than requested.
func (p *Protocol) destinationReply(from netstack.NodeID, r *rreq) {
	if r.Flags&(flagT|flagD) != 0 {
		if req := r.order().SN; req >= p.mySeq {
			p.mySeq = req + 1
			p.seqIncrements++
		}
	}
	rep := &rrep{
		Src:      r.Src,
		RreqID:   r.RreqID,
		Dst:      p.self,
		DstSeq:   p.mySeq,
		LF:       frac.Zero,
		LD:       0,
		Lifetime: p.cfg.ActiveRouteTimeout,
		Comp:     r.Comp,
	}
	p.statRREP++
	p.node.UnicastControl(from, rrepSize, rep)
}

// satisfiesSDC checks the Start Distance Condition plus the §V
// several-hops heuristic for intermediate replies.
func (p *Protocol) satisfiesSDC(r *rreq) bool {
	if r.D+1 < rcommon.MinReplyHops {
		return false
	}
	rt := p.route(r.Dst)
	if rt == nil || !rt.active(p.node.Now()) {
		return false
	}
	if rt.order.SN > r.DstSeq {
		return true
	}
	return r.order().Precedes(rt.order) && r.Flags&flagT == 0
}

// intermediateReply advertises this node's own route to r.Dst; the caller
// has marked the computation replied.
func (p *Protocol) intermediateReply(from netstack.NodeID, r *rreq) {
	rt := p.route(r.Dst)
	rep := &rrep{
		Src:      r.Src,
		RreqID:   r.RreqID,
		Dst:      r.Dst,
		DstSeq:   rt.order.SN,
		LF:       rt.order.FD,
		LD:       int(rt.dist),
		Lifetime: p.cfg.ActiveRouteTimeout,
		Comp:     r.Comp,
	}
	p.statRREP++
	p.node.UnicastControl(from, rrepSize, rep)
}

// relayRREQ implements Eqs. 9–11 and rebroadcasts (or unicasts a D-bit
// probe along the forward path).
func (p *Protocol) relayRREQ(from netstack.NodeID, r *rreq) {
	if r.TTL <= 1 {
		return
	}
	mine := p.order(r.Dst)
	z := *r
	z.TTL = r.TTL - 1
	z.D = r.D + 1 // Eq. 9, unit link costs
	z.Age = r.Age + p.cfg.NodeTraversal

	// Eq. 10: relay the minimum ordering of the node and the request.
	reqO := r.order()
	var zo label.Order
	switch {
	case r.Flags&flagU != 0 && mine.IsUnassigned():
		zo = label.Unassigned
	case mine.SN > reqO.SN:
		zo = mine
	case mine.SN == reqO.SN:
		zo = label.Min(mine, reqO)
	default:
		zo = reqO
	}
	if zo.IsUnassigned() {
		z.Flags |= flagU
	} else {
		z.Flags &^= flagU
		z.DstSeq, z.F = zo.SN, zo.FD
	}

	// Eq. 11: the reset-required bit.
	switch {
	case r.Flags&flagU != 0 && mine.IsUnassigned():
		z.Flags &^= flagT
	case mine.SN > reqO.SN:
		z.Flags &^= flagT
	case !reqO.Precedes(mine) && frac.SplitOverflows(r.F, mine.FD):
		z.Flags |= flagT
	}

	// Advertisement piece for the source: replace with this node's own
	// route to Src if active, else mark N (§III).
	if rt := p.route(r.Src); rt != nil && rt.active(p.node.Now()) {
		z.SrcSeq, z.LF, z.LD = rt.order.SN, rt.order.FD, int(rt.dist)
		z.Flags &^= flagN
		z.Lifetime = p.cfg.ActiveRouteTimeout
	} else {
		z.Flags |= flagN
	}

	p.statRREQ++
	if r.Flags&flagD != 0 {
		// Path-reset probe: travel the unicast forward path to Dst.
		if rt := p.route(r.Dst); rt != nil {
			if next, live := rt.best(p.node.Now()); live {
				p.node.UnicastControl(next, rreqSize, &z)
				return
			}
		}
		return
	}
	// Jitter desynchronizes neighbor rebroadcasts of the flood.
	jitter := sim.Time(p.node.Rand().Int63n(int64(10 * time.Millisecond)))
	p.node.BroadcastControlAfter(jitter, rreqSize, &z)
}

// --- Advertisements (Procedures 3 and 4) ------------------------------

// handleRREP processes an advertisement traveling the reverse path.
func (p *Protocol) handleRREP(from netstack.NodeID, rep *rrep) {
	if rep.Age >= p.cfg.DeletePeriod {
		return
	}
	terminus := rep.Src == p.self
	// The originator never engages its own computation, so st is nil at
	// the terminus. st stays valid to the end: only an Engage on the
	// record moves it, and none runs inside this call.
	st := rep.Comp.State(p.self, p.swept, p.cfg.DeletePeriod)

	// C^A_? — Unassigned at the terminus or without cached state.
	c := label.Unassigned
	if st != nil {
		c = st.cached
	}

	mine := p.order(rep.Dst)
	adv := rep.order()
	if !mine.IsUnassigned() && !mine.Precedes(adv) {
		// Infeasible advertisement: issue a fresh advertisement from
		// this node's own label if it can (§III), else discard.
		if st != nil && !st.replied {
			if rt := p.route(rep.Dst); rt != nil && rt.active(p.node.Now()) && c.Precedes(rt.order) {
				st.replied = true
				p.forwardRREP(netstack.NodeID(st.lastHop), rep, rt.order, int(rt.dist))
			}
		}
		return
	}

	g := p.setRoute(from, rep.Dst, adv, rep.LD+1, c, rep.Lifetime)
	if !g.Finite() {
		return // Procedure 3: drop the advertisement
	}

	if terminus {
		p.completeDiscovery(rep, g)
		return
	}
	if st == nil || st.replied {
		return // at most one reply per (source, rreqid) (Procedure 4)
	}
	st.replied = true
	p.forwardRREP(netstack.NodeID(st.lastHop), rep, g, int(p.route(rep.Dst).dist))
}

// forwardRREP relays an advertisement rewritten with this node's ordering
// (Procedure 4: O_y <- O_A, d_y <- d_A).
func (p *Protocol) forwardRREP(to netstack.NodeID, rep *rrep, o label.Order, dist int) {
	y := *rep
	y.DstSeq, y.LF, y.LD = o.SN, o.FD, dist
	y.Age = rep.Age + p.cfg.NodeTraversal
	p.statRREP++
	p.node.UnicastControl(to, rrepSize, &y)
}

// completeDiscovery flushes queued packets once the requester installs the
// route, and requests a path reset when the fraction has grown too deep
// and a reset can help: a fresh path of n = LD+1 hops labels its terminus
// n/(n+1), so under a MaxDenom below n+1 every reset's reply would ask
// for another.
func (p *Protocol) completeDiscovery(rep *rrep, g label.Order) {
	if g.FD.Den > p.cfg.MaxDenom && uint64(rep.LD)+2 <= uint64(p.cfg.MaxDenom) {
		p.requestPathReset(rep.Dst)
	}
	// Any reply for the destination completes the discovery, even one
	// answering an earlier attempt: the route is already installed.
	p.disc.Complete(rep.Dst, p.forwardBest)
}

// forwardBest sends pkt to the best live successor toward its destination
// (no multipath draw), refreshing it; it reports false when there is none.
func (p *Protocol) forwardBest(pkt *netstack.DataPacket) bool {
	r := p.route(pkt.Dst)
	if r == nil {
		return false
	}
	next, live := r.best(p.node.Now())
	if live {
		p.refresh(r, next)
		p.node.ForwardData(next, pkt)
	}
	return live
}

// requestPathReset sends a D-bit unicast RREQ along the forward path so the
// destination issues a reply with a larger sequence number (§III).
func (p *Protocol) requestPathReset(dst netstack.NodeID) {
	rt := p.route(dst)
	if rt == nil {
		return
	}
	next, live := rt.best(p.node.Now())
	if !live {
		return
	}
	p.rreqID++
	probe := &rreq{
		Src:    p.self,
		RreqID: p.rreqID,
		Dst:    dst,
		DstSeq: rt.order.SN,
		F:      rt.order.FD,
		TTL:    len(p.cfg.TTLs) * 35,
		Flags:  flagD | flagN,
		SrcSeq: p.mySeq,
		LF:     frac.Zero,
		Comp:   rcommon.NewComputation[rreqState](p.node.NetworkSize()),
	}
	p.statRREQ++
	p.node.UnicastControl(next, rreqSize, probe)
}

// setRoute implements Procedure 3: compute a new ordering via Algorithm 1,
// adopt it if finite, record the advertiser as successor, and prune
// out-of-order successors. It returns the computed ordering.
func (p *Protocol) setRoute(from, dst netstack.NodeID, adv label.Order, dist int, c label.Order, lifetime sim.Time) label.Order {
	if dst == p.self || adv.FD == frac.One {
		return label.Unassigned
	}
	r := p.route(dst)
	mine := r.ordering()
	if !mine.IsUnassigned() && !mine.Precedes(adv) {
		return label.Unassigned // infeasible (Theorem 2 guard)
	}
	g := newOrder(mine, c, adv, p.cfg.Labels)
	if !g.Finite() {
		return g
	}
	// Theorem 1 guard: a relabel maintains order (Definition 1, Eqs.
	// 3–5; pruneOutOfOrder below makes Eq. 6 hold). Algorithm 1
	// guarantees this structurally (Theorem 6); the check is defensive
	// and counts violations instead of installing an unsafe label. An
	// unchanged label already meets Eqs. 3–5.
	if !g.Equal(mine) && core.CheckOrder(core.OrderSet{}, g, mine, c, adv, nil) != nil {
		p.statOrderViolations++
		return label.Unassigned
	}
	if r == nil {
		r, _ = p.routes.Put(dst)
	}
	r.order = g
	r.dist = int32(dist)
	if g.FD.Den > p.maxDenomSeen {
		p.maxDenomSeen = g.FD.Den
	}
	if lifetime <= 0 {
		lifetime = p.cfg.ActiveRouteTimeout
	}
	s := successor{order: adv, expiry: p.node.Now() + lifetime, id: int32(from), dist: int32(dist)}
	if old := r.find(from); old != nil {
		*old = s
	} else {
		r.succ = append(r.succ, s)
	}
	r.pruneOutOfOrder(g)
	r.orderExpiry = 0
	return g
}

// handleRERR drops the sender as successor for the listed destinations and
// propagates for routes that became invalid.
func (p *Protocol) handleRERR(from netstack.NodeID, e *rerr) {
	now := p.node.Now()
	var lost []netstack.NodeID
	for _, dst := range e.Dests {
		r := p.route(dst)
		if r == nil || r.find(from) == nil {
			continue
		}
		if r.dropSuccessor(from, now) {
			r.orderExpiry = now + p.cfg.DeletePeriod
			lost = append(lost, dst)
		}
	}
	if len(lost) > 0 && p.rerrLimit.Allow(now) {
		out := &rerr{Dests: lost}
		p.node.BroadcastControl(out.size(), out)
		p.statRERR++
	}
}

// Orders exposes the node's orderings per destination for invariant
// checking by the scenario harness.
func (p *Protocol) Orders() map[netstack.NodeID]label.Order {
	out := make(map[netstack.NodeID]label.Order, p.routes.Len()+1)
	out[p.self] = label.Destination(p.mySeq)
	for i := 0; i < p.routes.Len(); i++ {
		out[p.routes.KeyAt(i)] = p.routes.At(i).order
	}
	return out
}

// SuccessorsOf exposes the live successor set for a destination, for
// invariant checking and the multipath example.
func (p *Protocol) SuccessorsOf(dst netstack.NodeID) []netstack.NodeID {
	r := p.route(dst)
	if r == nil {
		return nil
	}
	return r.successors(p.node.Now())
}
