package rcommon

import (
	"fmt"
	"time"

	"slr/internal/netstack"
	"slr/internal/registry"
	"slr/internal/sim"
)

// DiscoveryConfig holds the route-discovery constants the four on-demand
// protocols share. Each embeds it in its own Config, so the fields read as
// the protocol's (cfg.QueueCap).
type DiscoveryConfig struct {
	// NodeTraversal is the estimated per-hop latency: attempt k waits
	// 2·TTL·NodeTraversal·2^k for a reply.
	NodeTraversal sim.Time
	// RreqRetries is the number of retries after the first attempt.
	RreqRetries int
	// TTLs is the expanding-ring schedule; the last entry repeats.
	TTLs []int
	// QueueCap bounds the per-destination packet queue during discovery.
	QueueCap int
	// MaxSalvage bounds how often one packet is rerouted after a link
	// break.
	MaxSalvage int
	// RreqRateLimit caps RREQ originations per second (RREQ_RATELIMIT).
	RreqRateLimit int
	// DiscoveryHoldDown delays a fresh discovery for a destination that
	// just failed all retries, so saturated flows do not flood the
	// network with back-to-back failed searches.
	DiscoveryHoldDown sim.Time
}

// maxTTL is the largest TTL schedule entry: the IP header's 8-bit field.
const maxTTL = 255

// rateLimitDeferral is how long a solicitation over RreqRateLimit waits
// before it tries again.
const rateLimitDeferral = 200 * time.Millisecond

// DefaultDiscovery returns the evaluation's discovery constants with the
// TTL schedule ttls.
func DefaultDiscovery(ttls ...int) DiscoveryConfig {
	return DiscoveryConfig{
		NodeTraversal:     40 * time.Millisecond,
		RreqRetries:       2,
		TTLs:              ttls,
		QueueCap:          10,
		MaxSalvage:        3,
		RreqRateLimit:     10,
		DiscoveryHoldDown: 3 * time.Second,
	}
}

// DiscoveryAppliers adds the appliers of the discovery keys to own, the
// spec-level appliers of a protocol config C for registry.ApplyParams, and
// returns it. disc reaches C's DiscoveryConfig; ttlKeys name the TTL
// schedule's entries in order; durations arrive in seconds. A protocol
// builds its table once, at package initialisation.
func DiscoveryAppliers[C any](disc func(*C) *DiscoveryConfig, ttlKeys []string, own map[string]registry.Applier[C]) map[string]registry.Applier[C] {
	own["node_traversal_seconds"] = registry.Seconds(func(c *C, v sim.Time) { disc(c).NodeTraversal = v })
	own["rreq_retries"] = registry.Int(func(c *C, v int) { disc(c).RreqRetries = v })
	own["queue_cap"] = registry.Int(func(c *C, v int) { disc(c).QueueCap = v })
	own["max_salvage"] = registry.Int(func(c *C, v int) { disc(c).MaxSalvage = v })
	own["rreq_rate_limit"] = registry.Int(func(c *C, v int) { disc(c).RreqRateLimit = v })
	own["discovery_holddown_seconds"] = registry.Seconds(func(c *C, v sim.Time) { disc(c).DiscoveryHoldDown = v })
	for i, k := range ttlKeys {
		own[k] = registry.Int(func(c *C, v int) { disc(c).TTLs[i] = v })
	}
	return own
}

// Validate rejects discovery constants no deployment could run, naming
// the offending keys; kind prefixes the error and ttlKeys are the
// schedule's keys, as given to DiscoveryAppliers.
func (c DiscoveryConfig) Validate(kind string, ttlKeys []string) error {
	if c.NodeTraversal <= 0 {
		return fmt.Errorf("%s: node_traversal_seconds %v must be positive", kind, c.NodeTraversal)
	}
	if c.RreqRetries < 0 || c.QueueCap < 1 || c.MaxSalvage < 0 {
		return fmt.Errorf("%s: rreq_retries %d, queue_cap %d, max_salvage %d out of range",
			kind, c.RreqRetries, c.QueueCap, c.MaxSalvage)
	}
	// RateLimiter reads a cap below 1 as "no limit", which no spec may
	// ask for by accident.
	if c.RreqRateLimit < 1 {
		return fmt.Errorf("%s: rreq_rate_limit %d must be at least 1", kind, c.RreqRateLimit)
	}
	longest := 0
	for i, ttl := range c.TTLs {
		if ttl < 1 || ttl > maxTTL {
			return fmt.Errorf("%s: %s %d must be in [1, %d]", kind, ttlKeys[i], ttl, maxTTL)
		}
		longest = max(longest, ttl)
	}
	// The last attempt waits at most 2·longest·NodeTraversal·2^RreqRetries.
	if c.NodeTraversal > (sim.MaxSpan>>c.RreqRetries)/sim.Time(2*longest) {
		return fmt.Errorf("%s: node_traversal_seconds %v, ttl %d and rreq_retries %d make the last wait, 2·ttl·node_traversal·2^rreq_retries, exceed %v",
			kind, c.NodeTraversal, longest, c.RreqRetries, sim.MaxSpan)
	}
	return nil
}

// RouteConfig holds the constants AODV, LDR and SRP share, so §V compares
// them under one set: route discovery with the TTL schedule ttl_0..2, and
// the active route timeout. AODV's and LDR's Config is this type; SRP's
// embeds it.
type RouteConfig struct {
	DiscoveryConfig
	// ActiveRouteTimeout is how long an unused route stays valid.
	ActiveRouteTimeout sim.Time
}

// routeTTLKeys name the entries of a RouteConfig's TTL schedule.
var routeTTLKeys = []string{"ttl_0", "ttl_1", "ttl_2"}

// DefaultRouteConfig returns the evaluation's constants: TTLs 5, 10, 35
// and a 10 s active route timeout.
func DefaultRouteConfig() RouteConfig {
	return RouteConfig{DefaultDiscovery(5, 10, 35), 10 * time.Second}
}

// RouteAppliers adds the appliers of a RouteConfig's keys to own, the
// spec-level appliers of a protocol config C, and returns it; route
// reaches C's RouteConfig.
func RouteAppliers[C any](route func(*C) *RouteConfig, own map[string]registry.Applier[C]) map[string]registry.Applier[C] {
	own["active_route_timeout_seconds"] = registry.Seconds(func(c *C, v sim.Time) { route(c).ActiveRouteTimeout = v })
	return DiscoveryAppliers(func(c *C) *DiscoveryConfig { return &route(c).DiscoveryConfig }, routeTTLKeys, own)
}

// routeAppliers are the keys of a protocol whose config is a RouteConfig.
var routeAppliers = RouteAppliers(func(c *RouteConfig) *RouteConfig { return c }, map[string]registry.Applier[RouteConfig]{})

// Validate rejects route constants no deployment could run, naming the
// offending key; kind prefixes the error.
func (c RouteConfig) Validate(kind string) error {
	if c.ActiveRouteTimeout <= 0 {
		return fmt.Errorf("%s: active_route_timeout_seconds %v must be positive", kind, c.ActiveRouteTimeout)
	}
	return c.DiscoveryConfig.Validate(kind, routeTTLKeys)
}

// RouteConfigFromParams is Configure for a protocol whose config is a
// RouteConfig at DefaultRouteConfig; kind names the protocol.
func RouteConfigFromParams(kind string, params map[string]float64) (RouteConfig, error) {
	return Configure(kind, params, routeAppliers, DefaultRouteConfig(), RouteConfig.Validate)
}

// Configure is the one path a protocol's protocol_params take: def with
// params applied by apply (durations in seconds, booleans as 0/1), then
// checked by validate. Unknown keys, values of the wrong kind and
// out-of-range values are errors prefixed by kind; with one, the returned
// config is not meant to run.
func Configure[C any](kind string, params map[string]float64, apply map[string]registry.Applier[C], def C, validate func(C, string) error) (C, error) {
	c, err := registry.ApplyParams(kind, params, apply, def)
	if err == nil {
		err = validate(c, kind)
	}
	return c, err
}

// Discovery is one in-flight route discovery: the packets queued behind
// it, the attempt counter, and the timer of its next retry or deferred
// solicitation.
type Discovery struct {
	Dst netstack.NodeID
	// Repair marks a local-repair discovery started by an intermediate
	// node (AODV §V); the owner consults it when the discovery is
	// abandoned.
	Repair  bool
	attempt int
	timer   sim.Timer
	queue   []*netstack.DataPacket
}

// DiscoveryTable runs route discovery for an on-demand protocol: the
// pending discoveries and the bounded packet queue behind each, the RREQ
// rate limit, the expanding-ring TTL pick, the retry timer with its binary
// exponential back-off, and the post-failure hold-down. The protocol only
// builds and broadcasts the RREQ. A protocol holds its table by value; the
// table reads the trial's shared config and makes its maps on their first
// write, so a node that never discovers a route allocates nothing here.
type DiscoveryTable struct {
	node      *netstack.Node
	cfg       *DiscoveryConfig
	send      func(d *Discovery, ttl int)
	abandoned func(d *Discovery)
	limit     RateLimiter
	pending   map[netstack.NodeID]*Discovery
	holdDown  map[netstack.NodeID]sim.Time
}

// NewDiscoveryTable returns a table running discoveries under cfg, which
// nothing may write while the table runs. send builds and broadcasts one
// RREQ for d with the given TTL. abandoned, which may be nil, runs once a
// discovery that failed all retries has dropped its queue.
func NewDiscoveryTable(cfg *DiscoveryConfig, send func(d *Discovery, ttl int), abandoned func(d *Discovery)) DiscoveryTable {
	return DiscoveryTable{
		cfg:       cfg,
		send:      send,
		abandoned: abandoned,
		limit:     RateLimiter{Cap: cfg.RreqRateLimit},
	}
}

// Attach binds the table to its node; called from the protocol's Attach.
func (t *DiscoveryTable) Attach(n *netstack.Node) { t.node = n }

// Enqueue routes pkt into the discovery machinery: queue it behind an
// existing discovery (dropping with DropQueueFull past the cap), drop it
// with DropNoRoute while the destination is held down, or start a fresh
// discovery, a local repair if repair is set.
func (t *DiscoveryTable) Enqueue(pkt *netstack.DataPacket, repair bool) {
	d, ok := t.pending[pkt.Dst]
	if ok {
		if len(d.queue) >= t.cfg.QueueCap {
			t.node.DropData(pkt, netstack.DropQueueFull)
			return
		}
		d.queue = append(d.queue, pkt)
		return
	}
	if until, held := t.holdDown[pkt.Dst]; held && t.node.Now() < until {
		t.node.DropData(pkt, netstack.DropNoRoute)
		return
	}
	d = &Discovery{Dst: pkt.Dst, Repair: repair, queue: []*netstack.DataPacket{pkt}}
	if t.pending == nil {
		t.pending = make(map[netstack.NodeID]*Discovery)
	}
	t.pending[pkt.Dst] = d
	t.solicit(d)
}

// solicit sends d's RREQ for its current attempt and arms the retry timer.
// Over the rate limit it tries again after rateLimitDeferral instead,
// without counting an attempt.
func (t *DiscoveryTable) solicit(d *Discovery) {
	if !t.limit.Allow(t.node.Now()) {
		d.timer = t.node.After(rateLimitDeferral, func() {
			if t.pending[d.Dst] == d {
				t.solicit(d)
			}
		})
		return
	}
	ttl := t.cfg.TTLs[min(d.attempt, len(t.cfg.TTLs)-1)]
	t.send(d, ttl)
	// Binary exponential back-off across attempts (RFC 3561 §6.3).
	wait := 2 * sim.Time(ttl) * t.cfg.NodeTraversal << uint(d.attempt)
	d.timer = t.node.After(wait, func() { t.retry(d) })
}

// retry runs when d's wait ends unanswered: re-solicit while attempts
// remain, otherwise abandon — drop every queued packet with DropTimeout,
// start the destination's hold-down, and call abandoned.
func (t *DiscoveryTable) retry(d *Discovery) {
	if t.pending[d.Dst] != d {
		return
	}
	d.attempt++
	if d.attempt <= t.cfg.RreqRetries {
		t.solicit(d)
		return
	}
	delete(t.pending, d.Dst)
	if t.holdDown == nil {
		t.holdDown = make(map[netstack.NodeID]sim.Time)
	}
	t.holdDown[d.Dst] = t.node.Now() + t.cfg.DiscoveryHoldDown
	for _, pkt := range d.queue {
		t.node.DropData(pkt, netstack.DropTimeout)
	}
	if t.abandoned != nil {
		t.abandoned(d)
	}
}

// Complete ends the discovery for dst, if one is pending: it cancels the
// discovery's timer and hands each queued packet to forward, dropping with
// DropNoRoute every packet forward reports it could not send.
func (t *DiscoveryTable) Complete(dst netstack.NodeID, forward func(*netstack.DataPacket) bool) {
	d, ok := t.pending[dst]
	if !ok {
		return
	}
	t.node.Cancel(d.timer)
	delete(t.pending, dst)
	for _, pkt := range d.queue {
		if !forward(pkt) {
			t.node.DropData(pkt, netstack.DropNoRoute)
		}
	}
}
