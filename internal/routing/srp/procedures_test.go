package srp

import (
	"testing"
	"time"

	"slr/internal/frac"
	"slr/internal/geo"
	"slr/internal/label"
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
	s.node.DropData(pkt, rcommon.DropNoRoute)
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

// relayWorld wires node 0 as SRP and node 1 as a spy within range.
func relayWorld(t *testing.T, cfg Config) (*rtest.World, *Protocol, *spy) {
	t.Helper()
	sp := &spy{}
	var pr *Protocol
	w := rtest.New(1, 150, func(id netstack.NodeID) netstack.Protocol {
		if id == 0 {
			pr = New(cfg)
			return pr
		}
		return sp
	}, []geo.Point{{X: 0}, {X: 100}}, nil)
	return w, pr, sp
}

func TestRelayCarriesMinimumOrdering(t *testing.T) {
	// Eq. 10 third case: relay has same sequence number and a smaller
	// fraction — the relayed solicitation must carry the minimum
	// (the relay's own ordering).
	w, pr, sp := relayWorld(t, DefaultConfig())
	r := pr.rt(9)
	r.assigned = true
	r.order = label.Order{SN: 4, FD: frac.MustNew(1, 3)}

	pr.handleRREQ(1, &rreq{Src: 5, RreqID: 1, Dst: 9, DstSeq: 4,
		F: frac.MustNew(1, 2), TTL: 5, Flags: flagN})
	w.Sim.RunUntil(time.Second)

	if len(sp.rreqs) != 1 {
		t.Fatalf("spy heard %d rreqs, want 1", len(sp.rreqs))
	}
	z := sp.rreqs[0]
	if z.DstSeq != 4 || z.F != frac.MustNew(1, 3) {
		t.Fatalf("relayed ordering = (%d, %v), want (4, 1/3)", z.DstSeq, z.F)
	}
	if z.TTL != 4 || z.D != 1 {
		t.Fatalf("TTL/D = %d/%d, want 4/1", z.TTL, z.D)
	}
}

func TestRelayFresherSeqnoClearsReset(t *testing.T) {
	// Eq. 11 second case: the relay knows a fresher sequence number, so
	// it clears the T bit and carries its own ordering (Eq. 10 case 2).
	w, pr, sp := relayWorld(t, DefaultConfig())
	r := pr.rt(9)
	r.assigned = true
	r.order = label.Order{SN: 7, FD: frac.MustNew(2, 3)}

	pr.handleRREQ(1, &rreq{Src: 5, RreqID: 2, Dst: 9, DstSeq: 4,
		F: frac.MustNew(1, 2), TTL: 5, Flags: flagT | flagN})
	w.Sim.RunUntil(time.Second)

	if len(sp.rreqs) != 1 {
		t.Fatalf("spy heard %d rreqs, want 1", len(sp.rreqs))
	}
	z := sp.rreqs[0]
	if z.Flags&flagT != 0 {
		t.Fatal("reset bit not cleared by fresher relay")
	}
	if z.DstSeq != 7 || z.F != frac.MustNew(2, 3) {
		t.Fatalf("relayed ordering = (%d, %v), want (7, 2/3)", z.DstSeq, z.F)
	}
}

func TestRelaySetsResetOnOverflow(t *testing.T) {
	// Eq. 11 third case: an out-of-order relay whose split would
	// overflow 32 bits must set the T bit.
	w, pr, sp := relayWorld(t, DefaultConfig())
	r := pr.rt(9)
	r.assigned = true
	// Same sn, fraction ABOVE the request's (out of order), denominator
	// near the 32-bit cap so n+q overflows.
	r.order = label.Order{SN: 4, FD: frac.F{Num: 1<<32 - 3, Den: 1<<32 - 2}}

	pr.handleRREQ(1, &rreq{Src: 5, RreqID: 3, Dst: 9, DstSeq: 4,
		F: frac.F{Num: 1, Den: 1<<32 - 2}, TTL: 5, Flags: flagN})
	w.Sim.RunUntil(time.Second)

	if len(sp.rreqs) != 1 {
		t.Fatalf("spy heard %d rreqs, want 1", len(sp.rreqs))
	}
	if sp.rreqs[0].Flags&flagT == 0 {
		t.Fatal("T bit not set on out-of-order overflow relay")
	}
}

func TestUnassignedRelayKeepsUnknownBit(t *testing.T) {
	// Eq. 10 first case: both request and relay unassigned — the relayed
	// solicitation stays unknown with the T bit cleared.
	w, pr, sp := relayWorld(t, DefaultConfig())
	_ = pr
	pr.handleRREQ(1, &rreq{Src: 5, RreqID: 4, Dst: 9, TTL: 5, Flags: flagU | flagT | flagN})
	w.Sim.RunUntil(time.Second)
	if len(sp.rreqs) != 1 {
		t.Fatalf("spy heard %d rreqs, want 1", len(sp.rreqs))
	}
	z := sp.rreqs[0]
	if z.Flags&flagU == 0 {
		t.Fatal("U bit lost")
	}
	if z.Flags&flagT != 0 {
		t.Fatal("T bit must be cleared when both are unassigned")
	}
}

func TestDuplicateRREQIgnored(t *testing.T) {
	w, pr, sp := relayWorld(t, DefaultConfig())
	req := &rreq{Src: 5, RreqID: 7, Dst: 9, TTL: 5, Flags: flagU | flagN}
	pr.handleRREQ(1, req)
	dup := *req
	pr.handleRREQ(1, &dup)
	w.Sim.RunUntil(time.Second)
	if len(sp.rreqs) != 1 {
		t.Fatalf("duplicate relayed: spy heard %d rreqs", len(sp.rreqs))
	}
}

func TestDestinationReplyBumpsOnReset(t *testing.T) {
	// A reset-required solicitation reaching the destination forces a
	// larger sequence number (§III), counted for Fig. 7.
	w, pr, sp := relayWorld(t, DefaultConfig())
	pr.handleRREQ(1, &rreq{Src: 5, RreqID: 8, Dst: 0, DstSeq: 6,
		F: frac.MustNew(1, 2), TTL: 5, Flags: flagT | flagN})
	w.Sim.RunUntil(time.Second)
	if len(sp.rreps) != 1 {
		t.Fatalf("spy heard %d rreps, want 1", len(sp.rreps))
	}
	if got := sp.rreps[0].DstSeq; got != 7 {
		t.Fatalf("reply seqno = %d, want 7 (requested 6 + 1)", got)
	}
	if pr.SeqnoDelta() != 1 {
		t.Fatalf("SeqnoDelta = %d, want 1", pr.SeqnoDelta())
	}
}

func TestDestinationReplyNoBumpWithoutReset(t *testing.T) {
	w, pr, sp := relayWorld(t, DefaultConfig())
	pr.handleRREQ(1, &rreq{Src: 5, RreqID: 9, Dst: 0, TTL: 5, Flags: flagU | flagN})
	w.Sim.RunUntil(time.Second)
	if len(sp.rreps) != 1 {
		t.Fatalf("spy heard %d rreps, want 1", len(sp.rreps))
	}
	if got := sp.rreps[0].DstSeq; got != 1 {
		t.Fatalf("reply seqno = %d, want initial 1", got)
	}
	if pr.SeqnoDelta() != 0 {
		t.Fatalf("SeqnoDelta = %d, want 0", pr.SeqnoDelta())
	}
}

func TestAgedControlDropped(t *testing.T) {
	w, pr, sp := relayWorld(t, DefaultConfig())
	pr.handleRREQ(1, &rreq{Src: 5, RreqID: 10, Dst: 9, TTL: 5,
		Flags: flagU | flagN, Age: time.Minute})
	w.Sim.RunUntil(time.Second)
	if len(sp.rreqs) != 0 {
		t.Fatal("aged RREQ relayed past DELETE_PERIOD")
	}
}

// TestHandleRREQAllocs pins what a flood costs the heap. Routes, successor
// sets and computation state live by value in slabs, so a duplicate of an
// engaged computation — what a node hears a dozen times per flood, each
// copy re-advertising the source — allocates nothing, and a new
// computation from a source already routed allocates only the relayed
// copy: its envelope and timer come from pools once earlier relays have
// left the air.
func TestHandleRREQAllocs(t *testing.T) {
	w, pr, _ := relayWorld(t, DefaultConfig())
	req := rreq{Src: 5, RreqID: 1, Dst: 9, TTL: 5, Flags: flagU,
		SrcSeq: 1, LF: frac.Zero, Lifetime: time.Second}
	pr.handleRREQ(1, &req)
	if len(pr.SuccessorsOf(5)) != 1 {
		t.Fatal("the advertisement piece built no reverse route")
	}

	if n := testing.AllocsPerRun(200, func() { pr.handleRREQ(1, &req) }); n != 0 {
		t.Errorf("duplicate RREQ: %v allocs, want 0", n)
	}
	if n := w.AllocsPerRelay(200, 50*time.Millisecond, func() {
		req.RreqID++
		pr.handleRREQ(1, &req)
	}); n != 1 {
		t.Errorf("new computation from a routed source: %v allocs, want 1 (the relayed copy)", n)
	}
	if got := pr.rreqs.Len(); got != 1+1+200 { // AllocsPerRun warms up once
		t.Fatalf("%d computations engaged, want 202", got)
	}
}
