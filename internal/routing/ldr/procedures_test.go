package ldr

import (
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/netstack"
	"slr/internal/routing/rcommon"
	"slr/internal/routing/rtest"
)

// spy records control messages it hears.
type spy struct {
	netstack.BaseProtocol
	node  *netstack.Node
	rreqs []*rreq
	rreps []*rrep
}

func (s *spy) Attach(n *netstack.Node) { s.node = n }
func (s *spy) Start()                  {}
func (s *spy) OriginateData(pkt *netstack.DataPacket) {
	s.node.DropData(pkt, netstack.DropNoRoute)
}
func (s *spy) RecvData(netstack.NodeID, *netstack.DataPacket) {}
func (s *spy) RecvControl(from netstack.NodeID, msg any) {
	switch m := msg.(type) {
	case *rreq:
		s.rreqs = append(s.rreqs, m)
	case *rrep:
		s.rreps = append(s.rreps, m)
	}
}
func (s *spy) DataFailed(netstack.NodeID, *netstack.DataPacket) {}

// flooded attaches a fresh computation record to r, as its originator
// would, sized to the network of pr, the node it is handed to.
func flooded(pr *Protocol, r rreq) *rreq {
	r.Comp = rcommon.NewComputation[rreqState](pr.node.NetworkSize())
	return &r
}

func spyWorld(t *testing.T) (*rtest.World, *Protocol, *spy) {
	t.Helper()
	sp := &spy{}
	var pr *Protocol
	w := rtest.New(1, 150, func(id netstack.NodeID) netstack.Protocol {
		if id == 0 {
			pr = newDefault()
			return pr
		}
		return sp
	}, []geo.Point{{X: 0}, {X: 100}}, nil)
	return w, pr, sp
}

// brokenRoute gives p an invalid route to dst in era sn with distance and
// feasible distance d, the way one arises: accept installs it, and a link
// break takes it down. Such a route orders the RREQs p relays but answers
// none.
func brokenRoute(t *testing.T, p *Protocol, dst netstack.NodeID, sn uint64, d int) {
	t.Helper()
	if !p.accept(7, &rrep{Dst: dst, DstSeq: sn, D: d - 1, Lifetime: time.Minute}) {
		t.Fatalf("route to %d (sn %d, d %d) not installed", dst, sn, d)
	}
	p.table[dst].valid = false
}

func TestRelayStrengthensConstraint(t *testing.T) {
	// A relay with a same-era smaller FD must carry its own FD as the
	// new constraint (the integer analogue of SRP's Eq. 10).
	w, pr, sp := spyWorld(t)
	brokenRoute(t, pr, 9, 4, 2)
	pr.handleRREQ(1, flooded(pr, rreq{Src: 5, RreqID: 1, Dst: 9, DstSeq: 4, FD: 6, TTL: 5, D: 3}))
	w.Sim.RunUntil(time.Second)
	// D+1 >= MinReplyHops and the entry is NOT active (no valid next
	// hop), so it relays rather than replies.
	if len(sp.rreqs) != 1 {
		t.Fatalf("heard %d rreqs, want 1", len(sp.rreqs))
	}
	if sp.rreqs[0].FD != 2 {
		t.Fatalf("relayed FD = %d, want 2", sp.rreqs[0].FD)
	}
	if sp.rreqs[0].Reset {
		t.Fatal("in-order relay set the reset flag")
	}
}

// TestRREQRelayAllocs pins what relaying a RREQ costs the heap: over the
// same RREQ arriving with TTL 1, which is not relayed, exactly the relayed
// copy. The envelope and the jitter timer come from pools once earlier
// relays have left the air.
func TestRREQRelayAllocs(t *testing.T) {
	w, pr, _ := spyWorld(t)
	id := uint32(0)
	cost := func(ttl int) float64 {
		return w.AllocsPerRelay(200, 50*time.Millisecond, func() {
			id++
			pr.handleRREQ(1, flooded(pr, rreq{Src: 5, RreqID: id, Dst: 9, DstSeq: 4, FD: 6, TTL: ttl, D: 3}))
		})
	}
	unrelayed, relayed := cost(1), cost(5)
	if relayed-unrelayed != 1 {
		t.Errorf("relayed RREQ: %v allocs, unrelayed %v; want exactly 1 more (the relayed copy)", relayed, unrelayed)
	}
}

func TestOutOfOrderRelayRequestsReset(t *testing.T) {
	// Same era, FD not below the constraint: integers are not dense, so
	// the relay cannot be threaded in-order — reset required.
	w, pr, sp := spyWorld(t)
	brokenRoute(t, pr, 9, 4, 8)
	pr.handleRREQ(1, flooded(pr, rreq{Src: 5, RreqID: 2, Dst: 9, DstSeq: 4, FD: 3, TTL: 5, D: 1}))
	w.Sim.RunUntil(time.Second)
	if len(sp.rreqs) != 1 {
		t.Fatalf("heard %d rreqs, want 1", len(sp.rreqs))
	}
	if !sp.rreqs[0].Reset {
		t.Fatal("out-of-order relay did not set reset")
	}
	if sp.rreqs[0].FD != 3 {
		t.Fatalf("constraint changed to %d, want 3", sp.rreqs[0].FD)
	}
}

func TestFresherRelayClearsReset(t *testing.T) {
	w, pr, sp := spyWorld(t)
	brokenRoute(t, pr, 9, 9, 4)
	pr.handleRREQ(1, flooded(pr, rreq{Src: 5, RreqID: 3, Dst: 9, DstSeq: 4, FD: 3,
		TTL: 5, D: 1, Reset: true}))
	w.Sim.RunUntil(time.Second)
	if len(sp.rreqs) != 1 {
		t.Fatalf("heard %d rreqs, want 1", len(sp.rreqs))
	}
	z := sp.rreqs[0]
	if z.Reset {
		t.Fatal("fresher relay kept the reset flag")
	}
	if z.DstSeq != 9 || z.FD != 4 {
		t.Fatalf("relayed ordering = (%d, %d), want (9, 4)", z.DstSeq, z.FD)
	}
}

func TestDestinationAlwaysAnswers(t *testing.T) {
	w, pr, sp := spyWorld(t)
	pr.handleRREQ(1, flooded(pr, rreq{Src: 5, RreqID: 4, Dst: 0, Unknown: true, FD: infinity, TTL: 5}))
	w.Sim.RunUntil(time.Second)
	if len(sp.rreps) != 1 {
		t.Fatalf("heard %d rreps, want 1", len(sp.rreps))
	}
	if sp.rreps[0].D != 0 || sp.rreps[0].Dst != 0 {
		t.Fatalf("reply = %+v", sp.rreps[0])
	}
}

func TestHandleRREQAllocs(t *testing.T) {
	w, pr, sp := spyWorld(t)
	req := flooded(pr, rreq{Src: 5, RreqID: 1, Dst: 9, DstSeq: 4, FD: 6, TTL: 5, D: 3})
	pr.handleRREQ(1, req)
	w.Sim.RunUntil(time.Second)
	if len(sp.rreqs) != 1 {
		t.Fatalf("heard %d relayed RREQs, want 1", len(sp.rreqs))
	}
	if n := testing.AllocsPerRun(200, func() { pr.handleRREQ(1, req) }); n != 0 {
		t.Errorf("duplicate RREQ: %v allocs, want 0", n)
	}
}

// TestReengageAfterSweep: a node's computation state lasts until its first
// sweep at or after rcommon.FloodHold past its engagement — here the sweep
// at 30 s, landing exactly on the deadline. A late copy of the RREQ before
// it is a duplicate; one after it finds the node passive, and the node
// engages and relays again.
func TestReengageAfterSweep(t *testing.T) {
	w, pr, sp := spyWorld(t)
	req := flooded(pr, rreq{Src: 5, RreqID: 1, Dst: 9, Unknown: true, FD: infinity, TTL: 5, D: 3})
	pr.handleRREQ(1, req)
	w.Sim.RunUntil(rcommon.FloodHold - time.Second)
	late := *req
	pr.handleRREQ(1, &late)
	w.Sim.RunUntil(rcommon.FloodHold - 1)
	if len(sp.rreqs) != 1 {
		t.Fatalf("before the sweep: heard %d rreqs, want 1 (the late copy is a duplicate)", len(sp.rreqs))
	}
	w.Sim.RunUntil(rcommon.FloodHold + time.Second)
	pr.handleRREQ(1, &late)
	w.Sim.RunUntil(rcommon.FloodHold + 2*time.Second)
	if len(sp.rreqs) != 2 {
		t.Fatalf("after the sweep: heard %d rreqs, want 2 (the node engaged again)", len(sp.rreqs))
	}
}

// TestReplyAfterSweepFindsNoState: a RREP reaching a node after its sweep
// dropped the computation finds no reverse path and is not forwarded; one
// reaching it before the sweep is forwarded to the cached last hop.
func TestReplyAfterSweepFindsNoState(t *testing.T) {
	w, pr, sp := spyWorld(t)
	early := flooded(pr, rreq{Src: 5, RreqID: 1, Dst: 9, Unknown: true, FD: infinity, TTL: 5, D: 3})
	late := flooded(pr, rreq{Src: 5, RreqID: 2, Dst: 8, Unknown: true, FD: infinity, TTL: 5, D: 3})
	pr.handleRREQ(1, early)
	pr.handleRREQ(1, late)
	reply := func(r *rreq) *rrep {
		return &rrep{Src: r.Src, RreqID: r.RreqID, Dst: r.Dst, DstSeq: 1, D: 2, Lifetime: time.Minute, Comp: r.Comp}
	}
	w.Sim.RunUntil(rcommon.FloodHold - time.Second)
	pr.handleRREP(1, reply(early))
	w.Sim.RunUntil(rcommon.FloodHold + time.Second)
	if len(sp.rreps) != 1 {
		t.Fatalf("before the sweep: heard %d rreps, want 1", len(sp.rreps))
	}
	pr.handleRREP(1, reply(late))
	w.Sim.RunUntil(rcommon.FloodHold + 2*time.Second)
	if len(sp.rreps) != 1 {
		t.Fatalf("after the sweep: heard %d rreps, want still 1 (no state to forward by)", len(sp.rreps))
	}
	if len(pr.SuccessorsOf(8)) != 1 {
		t.Fatal("the late reply's route was not installed")
	}
}
