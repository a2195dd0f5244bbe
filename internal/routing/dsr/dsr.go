// Package dsr implements the Dynamic Source Routing protocol (Johnson,
// Maltz, Hu, Jetcheva; IETF draft-ietf-manet-dsr-07), a baseline of the
// paper's evaluation.
//
// DSR floods route requests that accumulate the traversed path; replies
// return the complete source route, which data packets then carry hop by
// hop. Nodes cache every route they learn or overhear and may answer
// requests from cache, and salvage broken packets with alternate cached
// routes. Packet paths are inherently loop-free, but aggressive caching
// turns stale under mobility — the paper observes DSR collapsing at
// 100 nodes / 30 flows with a MAC drop rate inversely proportional to its
// delivery ratio (Figs. 3–4).
package dsr

import (
	"slices"
	"time"

	"slr/internal/netstack"
	"slr/internal/registry"
	"slr/internal/routing/rcommon"
	"slr/internal/sim"
)

// Config holds DSR's tunable constants, all of them discovery's. Its TTL
// schedule has two entries: the non-propagating first attempt (first_ttl),
// then network-wide floods (net_ttl).
type Config = rcommon.DiscoveryConfig

// The route cache: a learned route lives cacheLifetime unless it is
// renewed, and a node keeps at most routesPerDest routes per destination.
const (
	cacheLifetime = 300 * time.Second
	routesPerDest = 3
)

// ttlKeys name the entries of the TTL schedule.
var ttlKeys = []string{"first_ttl", "net_ttl"}

// DefaultConfig returns the evaluation constants.
func DefaultConfig() Config { return rcommon.DefaultDiscovery(1, 35) }

// appliers are DSR's spec-level keys; see ConfigFromParams.
var appliers = rcommon.DiscoveryAppliers(func(c *Config) *Config { return c }, ttlKeys, map[string]registry.Applier[Config]{})

// ConfigFromParams returns DefaultConfig with the spec-level overrides in
// params applied; durations arrive in seconds, booleans as 0/1. Unknown
// keys and out-of-range values are errors.
func ConfigFromParams(params map[string]float64) (Config, error) {
	return rcommon.Configure("dsr", params, appliers, DefaultConfig(),
		func(c Config, kind string) error { return c.Validate(kind, ttlKeys) })
}

// rreq accumulates the traversed path in Path (intermediate nodes only,
// excluding Src and Dst).
type rreq struct {
	Src   netstack.NodeID
	ID    uint32
	Dst   netstack.NodeID
	Path  []netstack.NodeID
	TTL   int
	Flood *rcommon.Flood // duplicate record, shared by every copy
}

// rrep carries the complete source route Src..Dst in Full and travels back
// along it; Idx is the position of the current holder in Full.
type rrep struct {
	Src  netstack.NodeID
	ID   uint32
	Dst  netstack.NodeID
	Full []netstack.NodeID
}

// rerr reports the broken link A->B toward the packet source along Route.
type rerr struct {
	A, B  netstack.NodeID
	Route []netstack.NodeID // reversed prefix to travel
	Idx   int
}

// Wire sizes: 4 bytes per address in a route record.
const (
	rreqBase = 16
	rrepBase = 16
	rerrBase = 20
	perAddr  = 4
)

// cachedRoute is one route of the cache, held by value.
type cachedRoute struct {
	path   []netstack.NodeID // self exclusive, ends at destination
	expiry sim.Time
}

// Protocol is one node's DSR instance.
type Protocol struct {
	netstack.BaseProtocol
	cfg  Config
	node *netstack.Node
	self netstack.NodeID

	rreqID uint32
	cache  map[netstack.NodeID][]cachedRoute
	// swept is the instant of the last 10 s sweep, which is when RREQ
	// sightings expire (rcommon.Flood).
	swept sim.Time
	// disc runs route discovery: queues, RREQ rate limit, retries and
	// hold-down.
	disc    *rcommon.DiscoveryTable
	sweeper rcommon.Beaconer
	// rev is handleRREQ's scratch for the reversed route record. addRoute
	// keeps no reference to its argument, so it is reused for every RREQ.
	rev []netstack.NodeID
}

var _ netstack.Protocol = (*Protocol)(nil)

// New returns a DSR instance.
func New(cfg Config) *Protocol {
	p := &Protocol{
		cfg:   cfg,
		cache: make(map[netstack.NodeID][]cachedRoute),
	}
	p.disc = rcommon.NewDiscoveryTable(cfg, p.solicit, nil)
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

// SuccessorsOf exposes the first hop of the best cached route, for the
// harness's loop checker (source routes cannot loop, but the checker wants
// a uniform view).
func (p *Protocol) SuccessorsOf(dst netstack.NodeID) []netstack.NodeID {
	if r, ok := p.lookup(dst); ok && len(r) > 0 {
		return []netstack.NodeID{r[0]}
	}
	return nil
}

// --- Route cache ------------------------------------------------------

// lookup returns the shortest live cached path to dst.
func (p *Protocol) lookup(dst netstack.NodeID) ([]netstack.NodeID, bool) {
	now := p.node.Now()
	routes := p.cache[dst]
	var best []netstack.NodeID
	kept := routes[:0]
	for _, r := range routes {
		if r.expiry <= now {
			continue
		}
		kept = append(kept, r)
		if best == nil || len(r.path) < len(best) {
			best = r.path
		}
	}
	p.cache[dst] = kept
	if best == nil {
		return nil, false
	}
	return best, true
}

// addRoute caches path (self-exclusive, ending at its destination) and all
// its prefixes. Nothing writes a cached path, so the prefixes it keeps
// share one copy of path, made when the first of them is new; path itself
// is not kept, and the caller may reuse it.
func (p *Protocol) addRoute(path []netstack.NodeID) {
	var own []netstack.NodeID
	for end := 1; end <= len(path); end++ {
		dst := path[end-1]
		if dst == p.self || p.refresh(dst, path[:end]) {
			continue
		}
		if own == nil {
			own = slices.Clone(path)
		}
		p.insert(dst, own[:end:end])
	}
}

// refresh renews the cached route to dst along path, reporting whether
// there was one.
func (p *Protocol) refresh(dst netstack.NodeID, path []netstack.NodeID) bool {
	routes := p.cache[dst]
	for i := range routes {
		if slices.Equal(routes[i].path, path) {
			routes[i].expiry = p.node.Now() + cacheLifetime
			return true
		}
	}
	return false
}

// insert caches path, which is new, as a route to dst, evicting the
// longest route past routesPerDest.
func (p *Protocol) insert(dst netstack.NodeID, path []netstack.NodeID) {
	routes := append(p.cache[dst], cachedRoute{path: path, expiry: p.node.Now() + cacheLifetime})
	if len(routes) > routesPerDest {
		// Evict the longest.
		worst := 0
		for i, r := range routes {
			if len(r.path) > len(routes[worst].path) {
				worst = i
			}
		}
		routes[worst] = routes[len(routes)-1]
		routes = routes[:len(routes)-1]
	}
	p.cache[dst] = routes
}

// removeLink drops every cached route using the directed link a->b.
func (p *Protocol) removeLink(a, b netstack.NodeID) {
	for dst, routes := range p.cache {
		kept := routes[:0]
		for _, r := range routes {
			if !usesLink(p.self, r.path, a, b) {
				kept = append(kept, r)
			}
		}
		p.cache[dst] = kept
	}
}

func usesLink(self netstack.NodeID, path []netstack.NodeID, a, b netstack.NodeID) bool {
	prev := self
	for _, n := range path {
		if prev == a && n == b {
			return true
		}
		prev = n
	}
	return false
}

// --- Data plane -------------------------------------------------------

// OriginateData implements netstack.Protocol.
func (p *Protocol) OriginateData(pkt *netstack.DataPacket) {
	if !p.forward(pkt) {
		p.disc.Enqueue(pkt, false)
	}
}

// forward sends pkt along the shortest live cached route to its
// destination; it reports false when there is none.
func (p *Protocol) forward(pkt *netstack.DataPacket) bool {
	path, ok := p.lookup(pkt.Dst)
	if ok {
		p.sendAlong(pkt, path)
	}
	return ok
}

// sendAlong stamps the source route [self, path...] on pkt and forwards.
func (p *Protocol) sendAlong(pkt *netstack.DataPacket, path []netstack.NodeID) {
	route := make([]netstack.NodeID, 0, len(path)+1)
	route = append(route, p.self)
	route = append(route, path...)
	pkt.Route = route
	pkt.RouteIdx = 0
	p.node.ForwardData(route[1], pkt)
}

// RecvData implements netstack.Protocol.
func (p *Protocol) RecvData(from netstack.NodeID, pkt *netstack.DataPacket) {
	// Advance the source route.
	idx := pkt.RouteIdx + 1
	if idx >= len(pkt.Route) || pkt.Route[idx] != p.self || idx+1 >= len(pkt.Route) {
		p.node.DropData(pkt, netstack.DropNoRoute)
		return
	}
	pkt.RouteIdx = idx
	// Cache the remaining path while forwarding.
	p.addRoute(pkt.Route[idx+1:])
	p.node.ForwardData(pkt.Route[idx+1], pkt)
}

// DataFailed implements netstack.Protocol: broken link self->to. Send a
// route error to the packet source and salvage from cache if possible.
func (p *Protocol) DataFailed(to netstack.NodeID, pkt *netstack.DataPacket) {
	p.removeLink(p.self, to)
	p.sendRERR(pkt, to)
	if pkt.Salvaged >= p.cfg.MaxSalvage {
		p.node.DropData(pkt, netstack.DropLinkLost)
		return
	}
	pkt.Salvaged++
	if p.forward(pkt) {
		return
	}
	if pkt.Src == p.self {
		p.disc.Enqueue(pkt, false)
		return
	}
	p.node.DropData(pkt, netstack.DropLinkLost)
}

// sendRERR reports the broken link to pkt's source along the reversed
// traveled prefix of its source route.
func (p *Protocol) sendRERR(pkt *netstack.DataPacket, brokenNext netstack.NodeID) {
	if pkt.Src == p.self || pkt.RouteIdx <= 0 || pkt.RouteIdx >= len(pkt.Route) {
		return
	}
	// Reverse of the traveled portion: route[RouteIdx-1], ..., route[0].
	rev := make([]netstack.NodeID, 0, pkt.RouteIdx)
	for i := pkt.RouteIdx - 1; i >= 0; i-- {
		rev = append(rev, pkt.Route[i])
	}
	e := &rerr{A: p.self, B: brokenNext, Route: rev, Idx: 0}
	p.node.UnicastControl(rev[0], rerrBase+perAddr*len(rev), e)
}

// ControlFailed implements netstack.Protocol.
func (p *Protocol) ControlFailed(to netstack.NodeID, msg any) {
	p.removeLink(p.self, to)
}

// --- Control plane ----------------------------------------------------

// solicit broadcasts a RREQ for pd's destination with the TTL the
// discovery table picked: first_ttl, then net_ttl on every retry.
func (p *Protocol) solicit(pd *rcommon.Discovery, ttl int) {
	p.rreqID++
	r := &rreq{Src: p.self, ID: p.rreqID, Dst: pd.Dst, TTL: ttl, Flood: rcommon.NewFlood(p.node.Now(), p.node.NetworkSize())}
	p.node.BroadcastControl(rreqBase, r)
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
	if !r.Flood.Witness(p.self, p.node.Now(), p.swept) {
		return
	}
	for _, n := range r.Path {
		if n == p.self {
			return // already on the record
		}
	}
	// Cache the reverse route to the requester (bidirectional links).
	rev := p.rev[:0]
	for i := len(r.Path) - 1; i >= 0; i-- {
		rev = append(rev, r.Path[i])
	}
	p.rev = append(rev, r.Src)
	p.addRoute(p.rev)

	if r.Dst == p.self {
		full := buildFull(r.Src, r.Path, p.self)
		p.reply(from, r, full)
		return
	}
	// An intermediate node with a cached route answers from its cache.
	if cached, ok := p.lookup(r.Dst); ok {
		if full := spliceFull(r.Src, r.Path, p.self, cached); full != nil {
			p.reply(from, r, full)
			return
		}
	}
	if r.TTL <= 1 {
		return
	}
	z := *r
	z.TTL--
	z.Path = append(slices.Clip(r.Path), p.self) // a new array: copies share r.Path
	jitter := sim.Time(p.node.Rand().Int63n(int64(10 * time.Millisecond)))
	p.node.BroadcastControlAfter(jitter, rreqBase+perAddr*len(z.Path), &z)
}

// buildFull assembles src + path + dst.
func buildFull(src netstack.NodeID, path []netstack.NodeID, dst netstack.NodeID) []netstack.NodeID {
	full := make([]netstack.NodeID, 0, len(path)+2)
	full = append(full, src)
	full = append(full, path...)
	full = append(full, dst)
	return full
}

// spliceFull joins src+path+self with a cached route self->dst, rejecting
// splices that repeat a node (which would loop).
func spliceFull(src netstack.NodeID, path []netstack.NodeID, self netstack.NodeID, cached []netstack.NodeID) []netstack.NodeID {
	full := make([]netstack.NodeID, 0, len(path)+len(cached)+2)
	full = append(full, src)
	full = append(full, path...)
	full = append(full, self)
	full = append(full, cached...)
	for i, n := range full {
		if slices.Contains(full[:i], n) {
			return nil
		}
	}
	return full
}

// reply unicasts a RREP carrying the full route back toward the requester.
func (p *Protocol) reply(from netstack.NodeID, r *rreq, full []netstack.NodeID) {
	if full == nil {
		return
	}
	idx := slices.Index(full, p.self)
	if idx < 0 {
		return // the replier must appear on the route record
	}
	rep := &rrep{Src: r.Src, ID: r.ID, Dst: full[len(full)-1], Full: full}
	if idx+1 < len(full) {
		p.addRoute(full[idx+1:])
	}
	p.node.UnicastControl(from, rrepBase+perAddr*len(full), rep)
}

func (p *Protocol) handleRREP(from netstack.NodeID, rep *rrep) {
	idx := slices.Index(rep.Full, p.self)
	if idx < 0 {
		return
	}
	// Cache the forward remainder of the route.
	if idx+1 < len(rep.Full) {
		p.addRoute(rep.Full[idx+1:])
	}
	if rep.Src == p.self {
		p.disc.Complete(rep.Dst, p.forward)
		return
	}
	if idx == 0 {
		return // malformed: not the requester yet at route head
	}
	p.node.UnicastControl(rep.Full[idx-1], rrepBase+perAddr*len(rep.Full), rep)
}

func (p *Protocol) handleRERR(from netstack.NodeID, e *rerr) {
	p.removeLink(e.A, e.B)
	// Forward toward the original source along the reversed route.
	next := e.Idx + 1
	if next >= len(e.Route) {
		return
	}
	if e.Route[e.Idx] != p.self {
		return
	}
	z := *e
	z.Idx = next
	p.node.UnicastControl(e.Route[next], rerrBase+perAddr*len(e.Route), &z)
}
