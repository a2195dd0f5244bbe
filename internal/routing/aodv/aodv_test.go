package aodv

import (
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/netstack"
	"slr/internal/routing/rcommon"
	"slr/internal/routing/rtest"
	"slr/internal/sim"
)

func factory(id netstack.NodeID) netstack.Protocol { return newDefault() }

// newDefault returns an instance under its own copy of DefaultConfig.
func newDefault() *Protocol {
	cfg := DefaultConfig()
	return New(&cfg)
}

func TestChainDiscoveryAndDelivery(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(5, 100), nil)
	w.Send(0, 4)
	w.Sim.RunUntil(5 * time.Second)
	if w.MX.DataRecv != 1 {
		t.Fatalf("delivered %d, want 1 (drops %v)", w.MX.DataRecv, w.MX.DataDrops)
	}
	if h := w.MX.MeanHops(); h != 4 {
		t.Fatalf("hops = %v, want 4", h)
	}
}

func TestSourceSeqnoIncrementsPerDiscovery(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(3, 100), nil)
	w.Send(0, 2)
	w.Sim.RunUntil(3 * time.Second)
	src := w.Nodes[0].Protocol().(*Protocol)
	if src.SeqnoDelta() == 0 {
		t.Fatal("AODV source did not increment its sequence number")
	}
}

func TestSecondPacketUsesCachedRoute(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(4, 100), nil)
	w.Send(0, 3)
	w.Sim.RunUntil(2 * time.Second)
	ctl := w.MX.ControlTx
	w.Send(0, 3)
	w.Sim.RunUntil(4 * time.Second)
	if w.MX.DataRecv != 2 {
		t.Fatalf("delivered %d, want 2", w.MX.DataRecv)
	}
	if w.MX.ControlTx != ctl {
		t.Fatalf("cached-route packet generated %d control packets", w.MX.ControlTx-ctl)
	}
}

func TestIntermediateReply(t *testing.T) {
	pts := rtest.Chain(5, 100)
	pts = append(pts, geo.Point{X: 0, Y: 100}) // node 5 near node 0
	w := rtest.New(1, 120, factory, pts, nil)
	w.Send(0, 4)
	w.Sim.RunUntil(3 * time.Second)
	w.Send(5, 4)
	w.Sim.RunUntil(6 * time.Second)
	if w.MX.DataRecv != 2 {
		t.Fatalf("delivered %d, want 2 (drops %v)", w.MX.DataRecv, w.MX.DataDrops)
	}
}

func TestLinkBreakTriggersRepairOrRERR(t *testing.T) {
	pts := rtest.Chain(5, 100)
	models := make([]mobility.Model, 6)
	models[2] = mobility.NewTrace([]mobility.TracePoint{
		{At: 0, Pos: pts[2]},
		{At: 5 * time.Second, Pos: pts[2]},
		{At: 8 * time.Second, Pos: geo.Point{X: pts[2].X, Y: 5000}},
	})
	positions := append(pts, geo.Point{X: 200, Y: 60})
	w := rtest.New(1, 120, factory, positions, models)
	for i := 0; i < 30; i++ {
		i := i
		w.Sim.At(sim.Time(i)*time.Second, func() { w.Send(0, 4) })
	}
	w.Sim.RunUntil(40 * time.Second)
	if err := w.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
	if w.MX.DataRecv < 20 {
		t.Fatalf("delivered %d/30 (drops %v)", w.MX.DataRecv, w.MX.DataDrops)
	}
}

func TestDiscoveryTimeout(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(3, 100), nil)
	w.Send(0, 9)
	w.Sim.RunUntil(time.Minute)
	if w.MX.DataDrops[netstack.DropTimeout.String()] != 1 {
		t.Fatalf("drops = %v", w.MX.DataDrops)
	}
}

func TestNoRouteIntermediateSendsRERR(t *testing.T) {
	// Node 1 receives data for an unknown destination: unicast RERR and
	// drop.
	w := rtest.New(1, 120, factory, rtest.Chain(2, 100), nil)
	// Force a data packet through the stack without discovery by
	// injecting directly at node 1's protocol.
	pkt := &netstack.DataPacket{UID: 1, Src: 0, Dst: 7, Size: 100, TTL: 8, Created: 0}
	w.Nodes[1].Protocol().RecvData(0, pkt)
	w.Sim.RunUntil(time.Second)
	if w.MX.DataDrops[netstack.DropNoRoute.String()] != 1 {
		t.Fatalf("drops = %v", w.MX.DataDrops)
	}
	if w.MX.ControlTx == 0 {
		t.Fatal("no RERR sent")
	}
}

// TestSeqCompareWraps holds the sequence-number comparisons AODV's
// freshness rules call to RFC 3561 §6.1 rollover semantics.
func TestSeqCompareWraps(t *testing.T) {
	if !rcommon.SeqGT(1, 0xFFFFFFFF) {
		t.Error("wraparound compare failed")
	}
	if rcommon.SeqGT(0xFFFFFFFF, 1) {
		t.Error("wraparound compare inverted")
	}
	if !rcommon.SeqGE(5, 5) {
		t.Error("seqGE equality failed")
	}
}

func TestMobileNetworkLoopFree(t *testing.T) {
	const n = 20
	positions := make([]geo.Point, n)
	models := make([]mobility.Model, n)
	w := rtest.New(5, 250, factory, positions, models)
	_ = w
	// Build with deterministic waypoint models.
	rng := sim.New(77).Rand()
	terrain := geo.Terrain{Width: 800, Height: 300}
	for i := range models {
		models[i] = mobility.NewWaypoint(terrain, rng, 0, 20, 0)
	}
	w = rtest.New(5, 250, factory, positions, models)
	for i := 0; i < 40; i++ {
		i := i
		w.Sim.At(sim.Time(i)*time.Second, func() {
			src := i % n
			w.Send(src, (src+1+i%(n-1))%n)
			if err := w.CheckLoopFree(); err != nil {
				t.Error(err)
			}
		})
	}
	w.Sim.RunUntil(45 * time.Second)
	if w.MX.DataRecv == 0 {
		t.Fatal("nothing delivered")
	}
}
