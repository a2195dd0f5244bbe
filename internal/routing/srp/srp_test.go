package srp

import (
	"math/rand"
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/label"
	"slr/internal/mobility"
	"slr/internal/netstack"
	"slr/internal/routing/rtest"
	"slr/internal/sim"
)

func factory(cfg Config) rtest.Factory {
	return func(netstack.NodeID) netstack.Protocol { return New(&cfg) }
}

func defaultWorld(t *testing.T, positions []geo.Point, models []mobility.Model) *rtest.World {
	t.Helper()
	return rtest.New(1, 120, factory(DefaultConfig()), positions, models)
}

func TestChainDiscoveryAndDelivery(t *testing.T) {
	w := defaultWorld(t, rtest.Chain(5, 100), nil)
	w.Send(0, 4)
	w.Sim.RunUntil(5 * time.Second)
	if w.MX.DataRecv != 1 {
		t.Fatalf("delivered %d, want 1 (drops: %v)", w.MX.DataRecv, w.MX.DataDrops)
	}
	if h := w.MX.MeanHops(); h != 4 {
		t.Fatalf("hops = %v, want 4", h)
	}
	if err := w.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
}

// TestDataPathAddsNoRoutes pins that only setRoute adds a route: a relay
// toward a destination with no route (which answers with a RERR), an
// origination toward one (which queues behind a discovery) and the salvage
// of a failed packet toward one leave the node's table as they found it,
// so no destination a packet merely names gets an entry no sweep deletes.
func TestDataPathAddsNoRoutes(t *testing.T) {
	w := defaultWorld(t, rtest.Chain(3, 100), nil)
	w.Send(0, 2)
	w.Sim.RunUntil(5 * time.Second)
	if w.MX.DataRecv != 1 {
		t.Fatalf("delivered %d, want 1 (drops: %v)", w.MX.DataRecv, w.MX.DataDrops)
	}
	relay := w.Nodes[1].Protocol().(*Protocol)
	origin := w.Nodes[0].Protocol().(*Protocol)
	relayed, originated := relay.routes.Len(), origin.routes.Len()
	if relayed == 0 || originated == 0 {
		t.Fatalf("nodes 1 and 0 hold %d and %d routes after a delivery, want some", relayed, originated)
	}
	const unrouted = 9
	pkt := func(src netstack.NodeID) *netstack.DataPacket {
		return &netstack.DataPacket{UID: 100 + uint64(src), Src: src, Dst: unrouted, Size: 512, TTL: netstack.DefaultTTL}
	}
	relay.RecvData(0, pkt(0))
	origin.OriginateData(pkt(0))
	origin.DataFailed(1, pkt(0))
	if n := relay.routes.Len(); n != relayed || relay.route(unrouted) != nil {
		t.Errorf("relaying toward %d took node 1 from %d routes to %d", unrouted, relayed, n)
	}
	if n := origin.routes.Len(); n != originated || origin.route(unrouted) != nil {
		t.Errorf("originating toward %d took node 0 from %d routes to %d", unrouted, originated, n)
	}
}

func TestLabelsInTopologicalOrder(t *testing.T) {
	w := defaultWorld(t, rtest.Chain(5, 100), nil)
	w.Send(0, 4)
	w.Sim.RunUntil(5 * time.Second)
	// Collect orderings for destination 4 along the chain; every hop
	// must precede its successor (O_i ≺ O_{i+1} toward the destination).
	var prev label.Order
	for i := 0; i < 5; i++ {
		p := w.Nodes[i].Protocol().(*Protocol)
		o, ok := p.Orders()[netstack.NodeID(4)]
		if !ok {
			t.Fatalf("node %d unassigned for destination 4", i)
		}
		if i > 0 {
			if !prev.Precedes(o) {
				t.Fatalf("order violated at hop %d: %v then %v", i, prev, o)
			}
		}
		prev = o
	}
}

func TestRepliesComeFromDestinationLabel(t *testing.T) {
	w := defaultWorld(t, rtest.Chain(3, 100), nil)
	w.Send(0, 2)
	w.Sim.RunUntil(3 * time.Second)
	// Destination's own label is (1, 0/1) and never changes.
	d := w.Nodes[2].Protocol().(*Protocol)
	if got := d.Orders()[netstack.NodeID(2)]; got != label.Destination(1) {
		t.Fatalf("destination label = %v", got)
	}
	if d.SeqnoDelta() != 0 {
		t.Fatalf("destination incremented seqno %d times", d.SeqnoDelta())
	}
}

func TestBidirectionalTrafficUsesReversePath(t *testing.T) {
	w := defaultWorld(t, rtest.Chain(4, 100), nil)
	w.Send(0, 3)
	w.Sim.RunUntil(2 * time.Second)
	before := w.MX.ControlTx
	// The RREQ flood advertised node 0; node 3 should reach 0 with at
	// most a cheap discovery.
	w.Send(3, 0)
	w.Sim.RunUntil(4 * time.Second)
	if w.MX.DataRecv != 2 {
		t.Fatalf("delivered %d, want 2 (drops %v)", w.MX.DataRecv, w.MX.DataDrops)
	}
	_ = before
}

func TestLinkBreakRepairsWithPacketCache(t *testing.T) {
	// Node 2 of the chain 0-1-2-3-4 walks away at t=5s, breaking the
	// path; an alternate node 5 sits parallel to it. Packets keep
	// flowing after repair.
	pts := rtest.Chain(5, 100)
	models := make([]mobility.Model, 6)
	models[2] = mobility.NewTrace([]mobility.TracePoint{
		{At: 0, Pos: pts[2]},
		{At: 5 * time.Second, Pos: pts[2]},
		{At: 8 * time.Second, Pos: geo.Point{X: pts[2].X, Y: 5000}},
	})
	positions := append(pts, geo.Point{X: 200, Y: 60}) // node 5 parallel to 2
	w := defaultWorld(t, positions, models)

	for i := 0; i < 30; i++ {
		i := i
		w.Sim.At(sim.Time(i)*time.Second, func() { w.Send(0, 4) })
	}
	w.Sim.RunUntil(40 * time.Second)
	if err := w.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
	// The first few packets and the last several must arrive; mid-break
	// ones may drop. Expect clearly more than half.
	if w.MX.DataRecv < 20 {
		t.Fatalf("delivered %d/30 (drops %v)", w.MX.DataRecv, w.MX.DataDrops)
	}
	if w.Nodes[0].Protocol().(*Protocol).SeqnoDelta() != 0 {
		t.Fatal("SRP incremented a sequence number during local repair")
	}
}

func TestDiscoveryTimeoutDropsQueue(t *testing.T) {
	// Destination 9 does not exist; queued packets must drop after the
	// retry schedule.
	w := defaultWorld(t, rtest.Chain(3, 100), nil)
	w.Send(0, 9)
	w.Sim.RunUntil(time.Minute)
	if w.MX.DataDrops[netstack.DropTimeout.String()] != 1 {
		t.Fatalf("drops = %v, want one discovery-timeout", w.MX.DataDrops)
	}
}

func TestQueueCapDuringDiscovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueCap = 3
	w := rtest.New(1, 120, factory(cfg), rtest.Chain(2, 1000), nil) // partitioned
	for i := 0; i < 10; i++ {
		w.Send(0, 1)
	}
	w.Sim.RunUntil(time.Minute)
	if got := w.MX.DataDrops[netstack.DropQueueFull.String()]; got != 7 {
		t.Fatalf("queue-full drops = %d, want 7", got)
	}
}

func TestIntermediateReply(t *testing.T) {
	// After 0 reaches 4, node 5 (attached near 0's end) asks for 4; an
	// intermediate node with an active route may answer under SDC.
	pts := rtest.Chain(5, 100)
	pts = append(pts, geo.Point{X: 0, Y: 100}) // node 5 adjacent to 0 and 1
	w := defaultWorld(t, pts, nil)
	w.Send(0, 4)
	w.Sim.RunUntil(3 * time.Second)
	w.Send(5, 4)
	w.Sim.RunUntil(6 * time.Second)
	if w.MX.DataRecv != 2 {
		t.Fatalf("delivered %d, want 2 (drops %v)", w.MX.DataRecv, w.MX.DataDrops)
	}
	if err := w.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
}

func TestMultipathSuccessors(t *testing.T) {
	// On a 3x3 grid with diagonal-free spacing, discoveries from nodes 0,
	// 1 and 3 leave some node with more than one successor for the far
	// corner (node 1 holds {0, 4}; the center holds one), and the union
	// of the successor sets stays acyclic.
	w := defaultWorld(t, rtest.Grid(3, 3, 100), nil)
	for _, src := range []int{0, 1, 3} {
		src := src
		w.Sim.After(sim.Time(src)*time.Second, func() { w.Send(src, 8) })
	}
	w.Sim.RunUntil(10 * time.Second)
	if err := w.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
	if w.MX.DataRecv != 3 {
		t.Fatalf("delivered %d, want 3", w.MX.DataRecv)
	}
	multi := 0
	for _, n := range w.Nodes {
		if len(n.Protocol().(*Protocol).SuccessorsOf(8)) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no node holds more than one successor for node 8")
	}
}

func TestMobileNetworkStaysLoopFree(t *testing.T) {
	// 25 random-waypoint nodes at constant motion; periodic checks must
	// never find a successor-graph cycle (Theorem 3).
	const n = 25
	terrain := geo.Terrain{Width: 900, Height: 300}
	positions := make([]geo.Point, n)
	models := make([]mobility.Model, n)
	rng := rand.New(rand.NewSource(99))
	for i := range models {
		models[i] = mobility.NewWaypoint(terrain, rng, 0, 20, 0)
	}
	w := rtest.New(3, 250, factory(DefaultConfig()), positions, models)

	for i := 0; i < 60; i++ {
		i := i
		w.Sim.At(sim.Time(i)*time.Second, func() {
			src := i % n
			w.Send(src, (src+1+i%(n-1))%n)
			if err := w.CheckLoopFree(); err != nil {
				t.Error(err)
			}
		})
	}
	w.Sim.RunUntil(70 * time.Second)
	if err := w.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
	if w.MX.DataRecv == 0 {
		t.Fatal("no packets delivered in mobile network")
	}
}

func TestRERRInvalidatesStaleRoutes(t *testing.T) {
	// Break 3's link by teleporting node 3 away; node 1 forwarding data
	// must learn via RERR/loss detection and recover or drop, never loop.
	pts := rtest.Chain(4, 100)
	models := make([]mobility.Model, 4)
	models[3] = mobility.NewTrace([]mobility.TracePoint{
		{At: 0, Pos: pts[3]},
		{At: 2 * time.Second, Pos: pts[3]},
		{At: 2*time.Second + time.Millisecond, Pos: geo.Point{X: 9000}},
	})
	w := defaultWorld(t, pts, models)
	w.Send(0, 3)
	w.Sim.RunUntil(time.Second) // route established
	for i := 0; i < 10; i++ {
		i := i
		w.Sim.At(2*time.Second+sim.Time(i)*200*time.Millisecond, func() { w.Send(0, 3) })
	}
	w.Sim.RunUntil(time.Minute)
	if err := w.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
	// The route through the vanished node must be gone everywhere.
	for i := 0; i < 3; i++ {
		p := w.Nodes[i].Protocol().(*Protocol)
		for _, s := range p.SuccessorsOf(3) {
			if s == 3 && i != 2 {
				t.Errorf("node %d still lists 3 as direct successor", i)
			}
		}
	}
}

func TestSeqnoNeverIncrementsInBenignRuns(t *testing.T) {
	w := defaultWorld(t, rtest.Grid(4, 4, 100), nil)
	for i := 0; i < 20; i++ {
		i := i
		w.Sim.At(sim.Time(i)*500*time.Millisecond, func() { w.Send(i%16, 15-(i%16)) })
	}
	w.Sim.RunUntil(30 * time.Second)
	for i, n := range w.Nodes {
		if d := n.Protocol().(*Protocol).SeqnoDelta(); d != 0 {
			t.Errorf("node %d incremented seqno %d times", i, d)
		}
	}
}

func TestNoOrderViolationsInMobileRuns(t *testing.T) {
	// The Theorem 1 guard must never fire: Algorithm 1 cannot produce a
	// label increase (Theorem 6).
	const n = 20
	positions := make([]geo.Point, n)
	models := make([]mobility.Model, n)
	rng := rand.New(rand.NewSource(123))
	terrain := geo.Terrain{Width: 800, Height: 300}
	for i := range models {
		models[i] = mobility.NewWaypoint(terrain, rng, 0, 20, 0)
	}
	w := rtest.New(9, 250, factory(DefaultConfig()), positions, models)
	for i := 0; i < 50; i++ {
		i := i
		w.Sim.At(sim.Time(i)*time.Second, func() {
			src := i % n
			w.Send(src, (src+1+i%(n-1))%n)
		})
	}
	w.Sim.RunUntil(60 * time.Second)
	for i, node := range w.Nodes {
		if v := node.Protocol().(*Protocol).OrderViolations(); v != 0 {
			t.Errorf("node %d: %d order violations", i, v)
		}
	}
}
