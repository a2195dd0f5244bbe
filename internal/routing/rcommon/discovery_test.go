package rcommon_test

import (
	"slices"
	"testing"
	"time"

	"slr/internal/netstack"
	"slr/internal/routing/rcommon"
	"slr/internal/routing/rtest"
	"slr/internal/sim"
)

// solicitation is one call of a DiscoveryTable's send.
type solicitation struct {
	at  sim.Time
	dst netstack.NodeID
	ttl int
}

// discoverer is a one-node protocol that only runs a DiscoveryTable and
// records what the table asks of it.
type discoverer struct {
	netstack.BaseProtocol
	disc      rcommon.DiscoveryTable
	node      *netstack.Node
	sent      []solicitation
	abandoned []*rcommon.Discovery
}

func (p *discoverer) Attach(n *netstack.Node) { p.node = n; p.disc.Attach(n) }
func (p *discoverer) Start()                  {}
func (p *discoverer) OriginateData(pkt *netstack.DataPacket) {
	p.disc.Enqueue(pkt, false)
}
func (p *discoverer) RecvData(netstack.NodeID, *netstack.DataPacket)   {}
func (p *discoverer) RecvControl(netstack.NodeID, any)                 {}
func (p *discoverer) DataFailed(netstack.NodeID, *netstack.DataPacket) {}

// newDiscoverer returns a lone node running discoveries under cfg.
func newDiscoverer(cfg rcommon.DiscoveryConfig) (*rtest.World, *discoverer) {
	p := &discoverer{}
	p.disc = rcommon.NewDiscoveryTable(&cfg,
		func(d *rcommon.Discovery, ttl int) {
			p.sent = append(p.sent, solicitation{p.node.Now(), d.Dst, ttl})
		},
		func(d *rcommon.Discovery) { p.abandoned = append(p.abandoned, d) })
	w := rtest.New(1, 250, func(netstack.NodeID) netstack.Protocol { return p }, rtest.Chain(1, 0), nil)
	return w, p
}

// testDiscovery has retries to spare, no rate limit, and a hold-down.
func testDiscovery() rcommon.DiscoveryConfig {
	cfg := rcommon.DefaultDiscovery(2, 4)
	cfg.NodeTraversal = 10 * time.Millisecond
	cfg.RreqRetries = 3
	cfg.QueueCap = 2
	cfg.RreqRateLimit = 0
	cfg.DiscoveryHoldDown = time.Second
	return cfg
}

func TestDiscoveryQueueCap(t *testing.T) {
	w, p := newDiscoverer(testDiscovery())
	for range 3 {
		w.Send(0, 5)
	}
	if got := w.MX.DataDrops[netstack.DropQueueFull.String()]; got != 1 {
		t.Fatalf("%d queue-full drops with 3 packets behind a cap of 2, want 1", got)
	}
	if len(p.sent) != 1 {
		t.Fatalf("%d solicitations for one destination, want 1", len(p.sent))
	}
}

// TestDiscoveryRetriesAndAbandon pins the schedule: RreqRetries+1 sends,
// the TTL schedule with its last entry repeating, waits of
// 2·ttl·traversal·2^attempt, then every queued packet dropped with
// discovery-timeout, one abandoned call, and the hold-down.
func TestDiscoveryRetriesAndAbandon(t *testing.T) {
	w, p := newDiscoverer(testDiscovery())
	w.Send(0, 5)
	w.Send(0, 5)
	w.Sim.RunUntil(1200 * time.Millisecond)

	ms := time.Millisecond
	want := []solicitation{
		{0, 5, 2},
		{40 * ms, 5, 4},  // + 2·2·10ms
		{200 * ms, 5, 4}, // + 2·4·10ms·2
		{520 * ms, 5, 4}, // + 2·4·10ms·4
	}
	if !slices.Equal(p.sent, want) {
		t.Fatalf("solicitations %v, want %v", p.sent, want)
	}
	if got := w.MX.DataDrops[netstack.DropTimeout.String()]; got != 2 {
		t.Fatalf("%d discovery-timeout drops, want both queued packets", got)
	}
	if len(p.abandoned) != 1 || p.abandoned[0].Dst != 5 || p.abandoned[0].Repair {
		t.Fatalf("abandoned calls %v, want one for destination 5", p.abandoned)
	}

	// Abandoned at 520 + 2·4·10ms·8 = 1160ms; held down for 1 s after.
	w.Sim.RunUntil(2 * time.Second)
	w.Send(0, 5)
	if got := w.MX.DataDrops[netstack.DropNoRoute.String()]; got != 1 || len(p.sent) != 4 {
		t.Fatalf("during the hold-down: %d no-route drops and %d sends, want 1 and 4", got, len(p.sent))
	}
	w.Sim.RunUntil(2200 * time.Millisecond)
	w.Send(0, 5)
	if len(p.sent) != 5 || p.sent[4] != (solicitation{2200 * ms, 5, 2}) {
		t.Fatalf("after the hold-down: solicitations %v, want a fresh one at 2.2s with ttl 2", p.sent)
	}
}

// TestDiscoveryRateLimitDefers checks that a solicitation over the rate
// limit waits in 200 ms steps and is not counted as an attempt: it goes
// out with the first TTL once the window has room.
func TestDiscoveryRateLimitDefers(t *testing.T) {
	cfg := testDiscovery()
	cfg.RreqRateLimit = 1
	cfg.NodeTraversal = time.Second // no retry inside the test
	w, p := newDiscoverer(cfg)
	w.Send(0, 5)
	w.Send(0, 6)
	w.Sim.RunUntil(1500 * time.Millisecond)
	want := []solicitation{{0, 5, 2}, {time.Second, 6, 2}}
	if !slices.Equal(p.sent, want) {
		t.Fatalf("solicitations %v, want %v", p.sent, want)
	}
}

// TestDiscoveryComplete checks that Complete flushes the queue through
// forward, drops what forward refuses with no-route, and leaves the
// retry timer without effect.
func TestDiscoveryComplete(t *testing.T) {
	w, p := newDiscoverer(testDiscovery())
	w.Send(0, 5)
	w.Send(0, 5)
	w.Sim.RunUntil(10 * time.Millisecond)
	var forwarded int
	p.disc.Complete(5, func(pkt *netstack.DataPacket) bool {
		forwarded++
		return forwarded == 1
	})
	if forwarded != 2 || w.MX.DataDrops[netstack.DropNoRoute.String()] != 1 {
		t.Fatalf("forward saw %d packets and %d were dropped, want 2 and 1", forwarded, w.MX.DataDrops[netstack.DropNoRoute.String()])
	}
	p.disc.Complete(5, func(*netstack.DataPacket) bool {
		t.Fatal("a second Complete flushed a finished discovery")
		return false
	})
	w.Sim.RunUntil(10 * time.Second)
	if len(p.sent) != 1 || len(p.abandoned) != 0 || w.MX.DataDrops[netstack.DropTimeout.String()] != 0 {
		t.Fatalf("after Complete: %d sends, %d abandoned, %d timeouts, want 1, 0, 0",
			len(p.sent), len(p.abandoned), w.MX.DataDrops[netstack.DropTimeout.String()])
	}
}

// TestDiscoveryTableIdleAllocs checks that a table allocates nothing
// before its first Enqueue: making it, attaching it and completing a
// discovery it never started cost a node that never discovers a route
// nothing, since its maps come with the first write.
func TestDiscoveryTableIdleAllocs(t *testing.T) {
	_, p := newDiscoverer(testDiscovery())
	cfg := testDiscovery()
	send := func(*rcommon.Discovery, int) {}
	forward := func(*netstack.DataPacket) bool { return true }
	if avg := testing.AllocsPerRun(100, func() {
		p.disc = rcommon.NewDiscoveryTable(&cfg, send, nil)
		p.disc.Attach(p.node)
		p.disc.Complete(5, forward)
	}); avg != 0 {
		t.Errorf("an idle discovery table allocates %.0f times, want 0", avg)
	}
}
