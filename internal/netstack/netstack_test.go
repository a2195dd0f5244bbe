package netstack

import (
	"slices"
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/radio"
	"slr/internal/sim"
)

// hopProto is a trivial protocol that forwards every data packet to a fixed
// next hop and records control messages; it exercises the stack plumbing.
type hopProto struct {
	BaseProtocol
	n        *Node
	nextHop  map[NodeID]NodeID // dst -> next hop
	control  []any
	heard    []heard
	failed   []*DataPacket
	acked    []*DataPacket
	started  bool
	ctlFails []any
}

func (p *hopProto) Attach(n *Node) { p.n = n }
func (p *hopProto) Start()         { p.started = true }

func (p *hopProto) OriginateData(pkt *DataPacket) { p.route(pkt) }

func (p *hopProto) RecvData(from NodeID, pkt *DataPacket) { p.route(pkt) }

func (p *hopProto) route(pkt *DataPacket) {
	next, ok := p.nextHop[pkt.Dst]
	if !ok {
		p.n.DropData(pkt, DropNoRoute)
		return
	}
	p.n.ForwardData(next, pkt)
}

// heard is one control receipt: who sent what, when.
type heard struct {
	at   sim.Time
	from NodeID
	msg  any
}

func (p *hopProto) RecvControl(from NodeID, msg any) {
	p.control = append(p.control, msg)
	p.heard = append(p.heard, heard{at: p.n.Now(), from: from, msg: msg})
}

func (p *hopProto) DataFailed(to NodeID, pkt *DataPacket) { p.failed = append(p.failed, pkt) }
func (p *hopProto) DataAcked(to NodeID, pkt *DataPacket)  { p.acked = append(p.acked, pkt) }
func (p *hopProto) ControlFailed(to NodeID, msg any)      { p.ctlFails = append(p.ctlFails, msg) }

type world struct {
	*Network
	prots []*hopProto
}

// buildWorld places one started hopProto node at each x on a line, with a
// 100 m range.
func buildWorld(t *testing.T, xs ...float64) *world {
	t.Helper()
	p := radio.DefaultParams()
	p.Range = 100
	models := make([]mobility.Model, len(xs))
	for i, x := range xs {
		models[i] = &mobility.Static{At: geo.Point{X: x}}
	}
	w := &world{}
	w.Network = NewNetwork(sim.New(7), p, models, func(NodeID) Protocol {
		pr := &hopProto{nextHop: make(map[NodeID]NodeID)}
		w.prots = append(w.prots, pr)
		return pr
	})
	w.StartAll()
	return w
}

func TestMultiHopDataDelivery(t *testing.T) {
	w := buildWorld(t, 0, 80, 160, 240)
	// Static route 0 -> 1 -> 2 -> 3.
	w.prots[0].nextHop[3] = 1
	w.prots[1].nextHop[3] = 2
	w.prots[2].nextHop[3] = 3
	pkt := &DataPacket{UID: 1, Src: 0, Dst: 3, Size: 512, TTL: DefaultTTL, Created: w.Sim.Now()}
	w.Nodes[0].SendData(pkt)
	w.Sim.Run()
	if w.MX.DataSent != 1 || w.MX.DataRecv != 1 {
		t.Fatalf("sent/recv = %d/%d, want 1/1", w.MX.DataSent, w.MX.DataRecv)
	}
	if w.MX.MeanHops() != 3 {
		t.Fatalf("hops = %v, want 3", w.MX.MeanHops())
	}
	if w.MX.MeanLatency() <= 0 || w.MX.MeanLatency() > 0.1 {
		t.Fatalf("latency = %v s, implausible", w.MX.MeanLatency())
	}
}

func TestDuplicateDeliveryCountsOnce(t *testing.T) {
	w := buildWorld(t, 0, 80)
	w.prots[0].nextHop[1] = 1
	pkt := &DataPacket{UID: 9, Src: 0, Dst: 1, Size: 100, TTL: 4, Created: w.Sim.Now()}
	w.Nodes[0].SendData(pkt)
	w.Sim.Run()
	// Simulate a duplicate arriving later.
	(*macUpper)(w.Nodes[1]).Deliver(0, pkt)
	if w.MX.DataRecv != 1 {
		t.Fatalf("DataRecv = %d, want 1 (dedup)", w.MX.DataRecv)
	}
}

// relayLog is a hopProto that records, instead of routing, every packet
// that reaches RecvData, as it was on arrival.
type relayLog struct {
	hopProto
	got []DataPacket
}

func (p *relayLog) RecvData(from NodeID, pkt *DataPacket) { p.got = append(p.got, *pkt) }

// TestArrivalReachesProtocolOnlyToRelay pins the arrival prelude the stack
// runs for every protocol: a packet for this node is delivered (once per
// UID) and one arriving with TTL 1 is dropped, neither reaching RecvData;
// a packet to relay reaches it with its hop counted and one TTL spent.
func TestArrivalReachesProtocolOnlyToRelay(t *testing.T) {
	log := &relayLog{}
	w := NewNetwork(sim.New(7), radio.DefaultParams(), []mobility.Model{&mobility.Static{}},
		func(NodeID) Protocol { return log })
	arrive := (*macUpper)(w.Nodes[0]).Deliver

	mine := &DataPacket{UID: 1, Dst: 0, TTL: 1, Hops: 2}
	arrive(1, mine)
	arrive(1, mine)
	if w.MX.DataRecv != 1 || w.MX.HopsSum != 3 {
		t.Errorf("a packet for this node arriving twice: %d deliveries over %d hops, want 1 over 3",
			w.MX.DataRecv, w.MX.HopsSum)
	}
	arrive(1, &DataPacket{UID: 2, Dst: 5, TTL: 1})
	if w.MX.DataDrops[DropTTL.String()] != 1 {
		t.Errorf("drops = %v, want one %s", w.MX.DataDrops, DropTTL)
	}
	if len(log.got) != 0 {
		t.Fatalf("RecvData got %+v, want nothing: neither packet is to relay", log.got)
	}

	arrive(1, &DataPacket{UID: 3, Dst: 5, TTL: 4, Hops: 2})
	if len(log.got) != 1 || log.got[0].UID != 3 || log.got[0].Hops != 3 || log.got[0].TTL != 3 {
		t.Fatalf("RecvData got %+v, want packet 3 with Hops 3 and TTL 3", log.got)
	}
	if w.MX.DataRecv != 1 || len(w.MX.DataDrops) != 1 {
		t.Errorf("relaying changed the accounting: %d deliveries, drops %v", w.MX.DataRecv, w.MX.DataDrops)
	}
}

// TestDropVocabulary pins the spellings DropReason keys the outputs with.
func TestDropVocabulary(t *testing.T) {
	want := []string{"discovery-timeout", "link-lost", "no-route", "queue-full", "ttl-expired"}
	for r, name := range want {
		if got := DropReason(r).String(); got != name {
			t.Errorf("DropReason(%d) = %q, want %q", r, got, name)
		}
		if !KnownDropReason(name) {
			t.Errorf("reason %q not recognized", name)
		}
	}
	if len(dropNames) != len(want) {
		t.Errorf("%d reasons, want %d", len(dropNames), len(want))
	}
	for _, bad := range []string{"", "rreq-queue-full", "no route", "NO-ROUTE"} {
		if KnownDropReason(bad) {
			t.Errorf("reason %q should be unknown", bad)
		}
	}
}

func TestNoRouteDrop(t *testing.T) {
	w := buildWorld(t, 0, 80)
	pkt := &DataPacket{UID: 2, Src: 0, Dst: 1, Size: 100, TTL: 4, Created: w.Sim.Now()}
	w.Nodes[0].SendData(pkt)
	w.Sim.Run()
	if w.MX.DataDrops["no-route"] != 1 {
		t.Fatalf("drops = %v", w.MX.DataDrops)
	}
}

func TestTTLExpiry(t *testing.T) {
	// Two nodes forwarding to each other: TTL must kill the packet.
	w := buildWorld(t, 0, 80)
	w.prots[0].nextHop[5] = 1
	w.prots[1].nextHop[5] = 0
	pkt := &DataPacket{UID: 3, Src: 0, Dst: 5, Size: 100, TTL: 6, Created: w.Sim.Now()}
	w.Nodes[0].SendData(pkt)
	w.Sim.Run()
	if w.MX.DataDrops["ttl-expired"] != 1 {
		t.Fatalf("drops = %v, want one ttl-expired", w.MX.DataDrops)
	}
}

func TestControlBroadcastAndAccounting(t *testing.T) {
	w := buildWorld(t, 0, 80, 160)
	w.Nodes[0].BroadcastControl(48, "hello-msg")
	w.Sim.Run()
	if len(w.prots[1].control) != 1 || w.prots[1].control[0] != "hello-msg" {
		t.Fatalf("node1 control = %v", w.prots[1].control)
	}
	// Node 2 is out of range of node 0.
	if len(w.prots[2].control) != 0 {
		t.Fatalf("node2 control = %v, want none", w.prots[2].control)
	}
	if w.MX.ControlTx != 1 || w.MX.ControlBytes != 48 {
		t.Fatalf("control accounting = %d/%d", w.MX.ControlTx, w.MX.ControlBytes)
	}
}

func TestUnicastControlFailureCallback(t *testing.T) {
	w := buildWorld(t, 0, 500)
	w.Nodes[0].UnicastControl(1, 24, "rrep")
	w.Sim.Run()
	if len(w.prots[0].ctlFails) != 1 || w.prots[0].ctlFails[0] != "rrep" {
		t.Fatalf("ctlFails = %v", w.prots[0].ctlFails)
	}
}

func TestDataFailedCallback(t *testing.T) {
	w := buildWorld(t, 0, 80)
	w.prots[0].nextHop[7] = 9 // next hop that does not exist in range
	// Register an unreachable station 9 far away? Simpler: next hop 1 but
	// move it out of range is impossible with statics; use missing id:
	// MAC sends to id 9 which is unregistered — no one ACKs, retries
	// exhaust, DataFailed fires.
	pkt := &DataPacket{UID: 4, Src: 0, Dst: 7, Size: 100, TTL: 4, Created: w.Sim.Now()}
	w.Nodes[0].SendData(pkt)
	w.Sim.Run()
	if len(w.prots[0].failed) != 1 {
		t.Fatalf("failed = %v, want 1 packet", w.prots[0].failed)
	}
}

func TestDataAckedCallback(t *testing.T) {
	w := buildWorld(t, 0, 80)
	w.prots[0].nextHop[1] = 1
	pkt := &DataPacket{UID: 5, Src: 0, Dst: 1, Size: 100, TTL: 4, Created: w.Sim.Now()}
	w.Nodes[0].SendData(pkt)
	w.Sim.Run()
	if len(w.prots[0].acked) != 1 {
		t.Fatalf("acked = %v, want 1 packet", w.prots[0].acked)
	}
}

func TestTimersViaNode(t *testing.T) {
	w := buildWorld(t, 0)
	fired := false
	w.Nodes[0].After(3*time.Second, func() { fired = true })
	w.Sim.Run()
	if !fired {
		t.Fatal("timer did not fire")
	}
	if w.Nodes[0].Now() != 3*time.Second {
		t.Fatalf("Now = %v", w.Nodes[0].Now())
	}
}

// TestBroadcastControlAfterMatchesAfter pins the delayed broadcast to the
// pattern it replaces, a timer whose closure calls BroadcastControl: on a
// three-node chain, with the middle node's two relays contending with its
// neighbors' immediate sends, every frame reaches every hearer at the same
// instant and in the same order, and the kernel fires the same events.
func TestBroadcastControlAfterMatchesAfter(t *testing.T) {
	run := func(relay func(n *Node, d sim.Time, size int, msg any)) *world {
		w := buildWorld(t, 0, 80, 160)
		w.Nodes[0].BroadcastControl(40, "a0")
		relay(w.Nodes[1], 0, 48, "r1")
		relay(w.Nodes[1], 300*time.Microsecond, 56, "r2")
		relay(w.Nodes[1], 2*time.Millisecond, 64, "r3")
		w.Nodes[2].After(300*time.Microsecond, func() { w.Nodes[2].BroadcastControl(40, "a2") })
		w.Sim.Run()
		return w
	}
	want := run(func(n *Node, d sim.Time, size int, msg any) {
		n.After(d, func() { n.BroadcastControl(size, msg) })
	})
	got := run((*Node).BroadcastControlAfter)
	for i := range want.prots {
		if !slices.Equal(got.prots[i].heard, want.prots[i].heard) {
			t.Errorf("node %d heard %v, want %v", i, got.prots[i].heard, want.prots[i].heard)
		}
	}
	if len(want.prots[0].heard) != 3 || len(want.prots[2].heard) != 3 {
		t.Fatalf("edge nodes heard %d and %d frames, want the relay's 3 each",
			len(want.prots[0].heard), len(want.prots[2].heard))
	}
	if got.Sim.Fired() != want.Sim.Fired() || got.MX.ControlTx != want.MX.ControlTx ||
		got.MX.ControlBytes != want.MX.ControlBytes {
		t.Errorf("events/control tx/bytes = %d/%d/%d, want %d/%d/%d",
			got.Sim.Fired(), got.MX.ControlTx, got.MX.ControlBytes,
			want.Sim.Fired(), want.MX.ControlTx, want.MX.ControlBytes)
	}
}

// TestBroadcastControlAfterAllocs pins the relay path's cost: once a sent
// envelope has come back to the pool, a delayed broadcast allocates
// nothing, and neither does its trip through the MAC and the radio.
func TestBroadcastControlAfterAllocs(t *testing.T) {
	w := buildWorld(t, 0, 80)
	msg := &DataPacket{} // any pointer: the stack never looks inside
	relay := func() {
		w.Nodes[0].BroadcastControlAfter(time.Millisecond, 48, msg)
		w.Sim.Run()
		w.prots[1].control, w.prots[1].heard = w.prots[1].control[:0], w.prots[1].heard[:0]
	}
	relay()
	if len(w.Nodes[0].envFree) != 1 {
		t.Fatalf("%d envelopes pooled after the broadcast left the air, want 1", len(w.Nodes[0].envFree))
	}
	if n := testing.AllocsPerRun(200, relay); n != 0 {
		t.Errorf("delayed broadcast with a warm pool: %v allocs, want 0", n)
	}
	if w.MX.ControlTx != 1+1+200 { // AllocsPerRun warms up once
		t.Fatalf("ControlTx = %d, want 202", w.MX.ControlTx)
	}
}
