package aodv

import (
	"slices"
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
	rerrs []*rerr
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
	case *rerr:
		s.rerrs = append(s.rerrs, m)
	}
}
func (s *spy) DataFailed(netstack.NodeID, *netstack.DataPacket) {}

func spyWorld(t *testing.T) (*rtest.World, *Protocol, *spy) {
	t.Helper()
	sp := &spy{}
	var pr *Protocol
	w := rtest.New(1, 150, func(id netstack.NodeID) netstack.Protocol {
		if id == 0 {
			pr = New(DefaultConfig())
			return pr
		}
		return sp
	}, []geo.Point{{X: 0}, {X: 100}}, nil)
	return w, pr, sp
}

// flooded returns r as its originator would send it: carrying a fresh
// flood record, sized to the network of pr, the node it is handed to.
func flooded(pr *Protocol, r rreq) *rreq {
	r.Flood = rcommon.NewFlood(0, pr.node.NetworkSize())
	return &r
}

func TestExpandingRingTTLs(t *testing.T) {
	// Discovery for an unreachable destination walks the TTL schedule
	// 5, 10, 35 with a fresh rreq id and incremented source seqno each
	// time.
	w, pr, sp := spyWorld(t)
	pr.OriginateData(&netstack.DataPacket{UID: 1, Src: 0, Dst: 99, Size: 100, TTL: 64})
	w.Sim.RunUntil(time.Minute)
	if len(sp.rreqs) != 3 {
		t.Fatalf("heard %d RREQs, want 3 ring attempts", len(sp.rreqs))
	}
	wantTTL := []int{5, 10, 35}
	for i, r := range sp.rreqs {
		if r.TTL != wantTTL[i] {
			t.Errorf("attempt %d TTL = %d, want %d", i, r.TTL, wantTTL[i])
		}
		if r.Dst != 99 || r.Src != 0 {
			t.Errorf("attempt %d addressed %d->%d", i, r.Src, r.Dst)
		}
	}
	if sp.rreqs[0].SrcSeq >= sp.rreqs[2].SrcSeq+1 {
		t.Error("source seqno did not increase across attempts")
	}
	if sp.rreqs[0].RreqID == sp.rreqs[1].RreqID {
		t.Error("rreq id reused across attempts")
	}
}

func TestReverseRouteFromRREQ(t *testing.T) {
	w, pr, _ := spyWorld(t)
	pr.handleRREQ(1, flooded(pr, rreq{Src: 7, SrcSeq: 3, RreqID: 1, Dst: 42,
		UnknownSeq: true, HopCount: 2, TTL: 5}))
	w.Sim.RunUntil(time.Second)
	e, ok := pr.liveRoute(7)
	if !ok {
		t.Fatal("reverse route not installed")
	}
	if e.nextHop != 1 || e.hops != 3 || e.seq != 3 {
		t.Fatalf("reverse route = %+v", e)
	}
}

func TestHandleRREQAllocs(t *testing.T) {
	w, pr, sp := spyWorld(t)
	req := flooded(pr, rreq{Src: 7, SrcSeq: 3, RreqID: 1, Dst: 42, UnknownSeq: true, HopCount: 2, TTL: 5})
	pr.handleRREQ(1, req)
	w.Sim.RunUntil(time.Second)
	if len(sp.rreqs) != 1 {
		t.Fatalf("heard %d relayed RREQs, want 1", len(sp.rreqs))
	}
	if n := testing.AllocsPerRun(200, func() { pr.handleRREQ(1, req) }); n != 0 {
		t.Errorf("duplicate RREQ: %v allocs, want 0", n)
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
		reqs := make([]*rreq, 201) // AllocsPerRelay warms up once
		for i := range reqs {
			id++
			reqs[i] = flooded(pr, rreq{Src: 7, SrcSeq: 3, RreqID: id, Dst: 42, UnknownSeq: true, HopCount: 2, TTL: ttl})
		}
		return w.AllocsPerRelay(200, 50*time.Millisecond, func() {
			pr.handleRREQ(1, reqs[0])
			reqs = reqs[1:]
		})
	}
	unrelayed, relayed := cost(1), cost(5)
	if relayed-unrelayed != 1 {
		t.Errorf("relayed RREQ: %v allocs, unrelayed %v; want exactly 1 more (the relayed copy)", relayed, unrelayed)
	}
}

func TestDestinationReplyHonorsSeqnoRule(t *testing.T) {
	// "If its own sequence number equals the RREQ's destination sequence
	// number, increment it before replying."
	w, pr, sp := spyWorld(t)
	pr.seq = 5
	pr.handleRREQ(1, flooded(pr, rreq{Src: 7, SrcSeq: 1, RreqID: 2, Dst: 0, DstSeq: 5, TTL: 5}))
	w.Sim.RunUntil(time.Second)
	if len(sp.rreps) != 1 {
		t.Fatalf("heard %d RREPs, want 1", len(sp.rreps))
	}
	if sp.rreps[0].DstSeq != 6 {
		t.Fatalf("reply seqno = %d, want 6", sp.rreps[0].DstSeq)
	}
}

func TestRouteUpdateRules(t *testing.T) {
	w, pr, _ := spyWorld(t)
	_ = w
	// Install a route with seq 5, 3 hops.
	if !pr.update(9, 5, true, 3, 1) {
		t.Fatal("initial install failed")
	}
	// Stale seqno rejected.
	if pr.update(9, 4, true, 1, 2) {
		t.Fatal("stale seqno accepted")
	}
	// Equal seqno, more hops rejected.
	if pr.update(9, 5, true, 4, 2) {
		t.Fatal("longer same-seq route accepted")
	}
	// Equal seqno, fewer hops accepted.
	if !pr.update(9, 5, true, 2, 2) {
		t.Fatal("shorter same-seq route rejected")
	}
	// Fresher seqno accepted regardless of hops.
	if !pr.update(9, 6, true, 9, 3) {
		t.Fatal("fresher route rejected")
	}
	if e, _ := pr.liveRoute(9); e.nextHop != 3 || e.hops != 9 {
		t.Fatalf("route = %+v", e)
	}
}

// TestRERRNeedsPrecursor pins when a broken route is reported: only when
// some neighbor routes through this node, because it sent that neighbor an
// intermediate reply or forwarded it a reply. Then one RERR names the
// destination with its bumped sequence number, and breaking the route
// again reports nothing. Node 1 of a three-node chain runs AODV between two
// spies; its route to the absent node 9 goes through node 2.
func TestRERRNeedsPrecursor(t *testing.T) {
	chain := func(t *testing.T) (*rtest.World, *Protocol, *spy) {
		t.Helper()
		sp := &spy{}
		var pr *Protocol
		w := rtest.New(1, 150, func(id netstack.NodeID) netstack.Protocol {
			switch id {
			case 0:
				return sp
			case 1:
				pr = New(DefaultConfig())
				return pr
			}
			return &spy{}
		}, rtest.Chain(3, 100), nil)
		return w, pr, sp
	}
	// toDst installs the route to 9 through node 2 with a reply that
	// answers node 1's own discovery.
	toDst := func(w *rtest.World, pr *Protocol) {
		pr.handleRREP(2, &rrep{Src: 1, Dst: 9, DstSeq: 4, HopCount: 1, Lifetime: time.Minute})
		w.Sim.RunUntil(w.Sim.Now() + time.Second)
	}
	// breakAndHear breaks the link to node 2 and returns the RERRs node
	// 0 heard.
	breakAndHear := func(w *rtest.World, pr *Protocol, sp *spy) []*rerr {
		n := len(sp.rerrs)
		pr.ControlFailed(2, nil)
		w.Sim.RunUntil(w.Sim.Now() + time.Second)
		return sp.rerrs[n:]
	}
	for _, tc := range []struct {
		name      string
		precursor func(w *rtest.World, pr *Protocol)
		reported  bool
	}{
		{"no precursor", toDst, false},
		{"intermediate reply", func(w *rtest.World, pr *Protocol) {
			toDst(w, pr)
			pr.handleRREQ(0, flooded(pr, rreq{Src: 5, SrcSeq: 1, RreqID: 1, Dst: 9, DstSeq: 4, TTL: 5}))
		}, true},
		{"forwarded reply", func(w *rtest.World, pr *Protocol) {
			pr.handleRREQ(0, flooded(pr, rreq{Src: 5, SrcSeq: 1, RreqID: 1, Dst: 9, UnknownSeq: true, TTL: 5}))
			w.Sim.RunUntil(w.Sim.Now() + time.Second)
			pr.handleRREP(2, &rrep{Src: 5, Dst: 9, DstSeq: 4, HopCount: 1, Lifetime: time.Minute})
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, pr, sp := chain(t)
			tc.precursor(w, pr)
			w.Sim.RunUntil(w.Sim.Now() + time.Second)
			if _, ok := pr.liveRoute(9); !ok {
				t.Fatal("no live route to 9 before the break")
			}
			heard := breakAndHear(w, pr, sp)
			if _, ok := pr.liveRoute(9); ok {
				t.Fatal("the route to 9 survived the break")
			}
			if !tc.reported {
				if len(heard) != 0 {
					t.Fatalf("a route no neighbor uses was reported: %+v", heard[0].Dests)
				}
				return
			}
			if len(heard) != 1 {
				t.Fatalf("heard %d RERRs, want 1", len(heard))
			}
			if want := []rerrDest{{Dst: 9, Seq: 5}}; !slices.Equal(heard[0].Dests, want) {
				t.Fatalf("RERR names %+v, want %+v", heard[0].Dests, want)
			}
			if again := breakAndHear(w, pr, sp); len(again) != 0 {
				t.Fatalf("breaking the route again sent %d RERRs, want none", len(again))
			}
		})
	}
}

// TestFailedRepairPlantsNoEntry: only update adds a routing-table entry, so
// a local repair that fails toward a destination this node holds no route
// for leaves the table as it was and reports nothing.
func TestFailedRepairPlantsNoEntry(t *testing.T) {
	w, pr, sp := spyWorld(t)
	pr.repairFailed(&rcommon.Discovery{Dst: 9, Repair: true})
	w.Sim.RunUntil(time.Second)
	if len(pr.table) != 0 {
		t.Fatalf("table holds %d entries after a failed repair toward an unknown destination, want 0", len(pr.table))
	}
	if len(sp.rerrs) != 0 {
		t.Fatalf("heard %d RERRs, want 0", len(sp.rerrs))
	}
}
