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
	node   *netstack.Node
	rreqs  []*rreq
	rreps  []*rrep
	rerrs  []*rerr
	hellos []*hello
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
	case *hello:
		s.hellos = append(s.hellos, m)
	}
}
func (s *spy) DataFailed(netstack.NodeID, *netstack.DataPacket) {}

// flooded attaches a fresh computation record to r, as its originator
// would, sized to the network of pr, the node it is handed to.
func flooded(pr *Protocol, r rreq) *rreq {
	r.Comp = rcommon.NewComputation[rreqState](pr.node.NetworkSize())
	return &r
}

// relayWorld wires node 0 as SRP and node 1 as a spy within range.
func relayWorld(t *testing.T, cfg Config) (*rtest.World, *Protocol, *spy) {
	t.Helper()
	sp := &spy{}
	var pr *Protocol
	w := rtest.New(1, 150, func(id netstack.NodeID) netstack.Protocol {
		if id == 0 {
			pr = New(&cfg)
			return pr
		}
		return sp
	}, []geo.Point{{X: 0}, {X: 100}}, nil)
	return w, pr, sp
}

// assign gives p a route to dst with the finite ordering o, made the only
// way a route is: setRoute adopting an advertisement from next hop from,
// here the one whose next-element is o (Algorithm 1 line 5).
func assign(t *testing.T, p *Protocol, from, dst netstack.NodeID, o label.Order) {
	t.Helper()
	adv := label.Order{SN: o.SN, FD: frac.F{Num: o.FD.Num - 1, Den: o.FD.Den - 1}}
	if g := p.setRoute(from, dst, adv, 1, label.Unassigned, 0); g != o {
		t.Fatalf("setRoute(%v) installed %v, want %v", adv, g, o)
	}
}

func TestRelayCarriesMinimumOrdering(t *testing.T) {
	// Eq. 10 third case: relay has same sequence number and a smaller
	// fraction — the relayed solicitation must carry the minimum
	// (the relay's own ordering).
	w, pr, sp := relayWorld(t, DefaultConfig())
	assign(t, pr, 3, 9, label.Order{SN: 4, FD: frac.MustNew(1, 3)})

	pr.handleRREQ(1, flooded(pr, rreq{Src: 5, RreqID: 1, Dst: 9, DstSeq: 4,
		F: frac.MustNew(1, 2), TTL: 5, Flags: flagN}))
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
	assign(t, pr, 3, 9, label.Order{SN: 7, FD: frac.MustNew(2, 3)})

	pr.handleRREQ(1, flooded(pr, rreq{Src: 5, RreqID: 2, Dst: 9, DstSeq: 4,
		F: frac.MustNew(1, 2), TTL: 5, Flags: flagT | flagN}))
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
	// Same sn, fraction ABOVE the request's (out of order), denominator
	// near the 32-bit cap so n+q overflows.
	assign(t, pr, 3, 9, label.Order{SN: 4, FD: frac.F{Num: 1<<32 - 3, Den: 1<<32 - 2}})

	pr.handleRREQ(1, flooded(pr, rreq{Src: 5, RreqID: 3, Dst: 9, DstSeq: 4,
		F: frac.F{Num: 1, Den: 1<<32 - 2}, TTL: 5, Flags: flagN}))
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
	pr.handleRREQ(1, flooded(pr, rreq{Src: 5, RreqID: 4, Dst: 9, TTL: 5, Flags: flagU | flagT | flagN}))
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
	req := flooded(pr, rreq{Src: 5, RreqID: 7, Dst: 9, TTL: 5, Flags: flagU | flagN})
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
	pr.handleRREQ(1, flooded(pr, rreq{Src: 5, RreqID: 8, Dst: 0, DstSeq: 6,
		F: frac.MustNew(1, 2), TTL: 5, Flags: flagT | flagN}))
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
	pr.handleRREQ(1, flooded(pr, rreq{Src: 5, RreqID: 9, Dst: 0, TTL: 5, Flags: flagU | flagN}))
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
	pr.handleRREQ(1, flooded(pr, rreq{Src: 5, RreqID: 10, Dst: 9, TTL: 5,
		Flags: flagU | flagN, Age: time.Minute}))
	w.Sim.RunUntil(time.Second)
	if len(sp.rreqs) != 0 {
		t.Fatal("aged RREQ relayed past DELETE_PERIOD")
	}
}

// computations returns n fresh computation records sized to pr's network,
// made outside the code whose allocations a test counts.
func computations(pr *Protocol, n int) []*rcommon.Computation[rreqState] {
	recs := make([]*rcommon.Computation[rreqState], n)
	for i := range recs {
		recs[i] = rcommon.NewComputation[rreqState](pr.node.NetworkSize())
	}
	return recs
}

// TestHandleRREQAllocs pins what a flood costs the heap. Routes and
// successor sets live by value in slabs and computation state in the
// flood's own record, so a duplicate of an engaged computation — what a
// node hears a dozen times per flood, each copy re-advertising the source
// — allocates nothing. Every new computation is a new flood with its own
// record, made before the count starts. The node's engagement then
// allocates on the record alone (its entry list; the index came with the
// record), which is
// measured separately; a new computation from a source already routed may
// allocate exactly that plus the relayed copy, and nothing per node. The
// relay's envelope and timer come from pools once earlier relays have left
// the air.
func TestHandleRREQAllocs(t *testing.T) {
	w, pr, _ := relayWorld(t, DefaultConfig())
	req := rreq{Src: 5, RreqID: 1, Dst: 9, TTL: 5, Flags: flagU,
		SrcSeq: 1, LF: frac.Zero, Lifetime: time.Second, Comp: rcommon.NewComputation[rreqState](pr.node.NetworkSize())}
	pr.handleRREQ(1, &req)
	if len(pr.SuccessorsOf(5)) != 1 {
		t.Fatal("the advertisement piece built no reverse route")
	}

	if n := testing.AllocsPerRun(200, func() { pr.handleRREQ(1, &req) }); n != 0 {
		t.Errorf("duplicate RREQ: %v allocs, want 0", n)
	}

	recs := computations(pr, 201) // both counters warm up once
	recordAllocs := testing.AllocsPerRun(200, func() {
		recs[0].Engage(pr.self, pr.node.Now(), pr.swept, pr.cfg.DeletePeriod)
		recs = recs[1:]
	})
	t.Logf("a record's first engagement: %v allocs", recordAllocs)
	recs = computations(pr, 201)
	engaged := recs
	if n := w.AllocsPerRelay(200, 50*time.Millisecond, func() {
		req.RreqID++
		req.Comp, recs = recs[0], recs[1:]
		pr.handleRREQ(1, &req)
	}); n != recordAllocs+1 {
		t.Errorf("new computation from a routed source: %v allocs, want the record's %v + 1 (the relayed copy)", n, recordAllocs)
	}
	for i, c := range engaged {
		if c.State(pr.self, pr.swept, pr.cfg.DeletePeriod) == nil {
			t.Fatalf("computation %d of %d not engaged", i, len(engaged))
		}
	}
}

// TestReengageAfterSweep: a node's computation state lasts until its first
// sweep at or after DeletePeriod past its engagement. A late copy of the
// RREQ before that sweep is a duplicate; one after it finds the node
// passive, and the node engages and relays again.
func TestReengageAfterSweep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeletePeriod = 2 * time.Second // expired by the first sweep, at 10 s
	w, pr, sp := relayWorld(t, cfg)
	req := flooded(pr, rreq{Src: 5, RreqID: 1, Dst: 9, TTL: 5, Flags: flagU | flagN})
	pr.handleRREQ(1, req)
	w.Sim.RunUntil(9 * time.Second)
	late := *req
	pr.handleRREQ(1, &late)
	w.Sim.RunUntil(10*time.Second - 1)
	if len(sp.rreqs) != 1 {
		t.Fatalf("before the sweep: spy heard %d rreqs, want 1 (the late copy is a duplicate)", len(sp.rreqs))
	}
	w.Sim.RunUntil(11 * time.Second)
	pr.handleRREQ(1, &late)
	w.Sim.RunUntil(12 * time.Second)
	if len(sp.rreqs) != 2 {
		t.Fatalf("after the sweep: spy heard %d rreqs, want 2 (the node engaged again)", len(sp.rreqs))
	}
}

// TestReplyAfterSweepFindsNoState: a RREP reaching a node after its sweep
// dropped the computation finds no reverse path and is not forwarded; one
// reaching it before the sweep is forwarded to the cached last hop.
func TestReplyAfterSweepFindsNoState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeletePeriod = 2 * time.Second
	w, pr, sp := relayWorld(t, cfg)
	early := flooded(pr, rreq{Src: 5, RreqID: 1, Dst: 9, TTL: 5, Flags: flagU | flagN})
	late := flooded(pr, rreq{Src: 5, RreqID: 2, Dst: 8, TTL: 5, Flags: flagU | flagN})
	pr.handleRREQ(1, early)
	pr.handleRREQ(1, late)
	reply := func(r *rreq) *rrep {
		return &rrep{Src: r.Src, RreqID: r.RreqID, Dst: r.Dst, DstSeq: 1, LF: frac.Zero, Comp: r.Comp}
	}
	w.Sim.RunUntil(9 * time.Second)
	pr.handleRREP(1, reply(early))
	w.Sim.RunUntil(11 * time.Second)
	if len(sp.rreps) != 1 {
		t.Fatalf("before the sweep: spy heard %d rreps, want 1", len(sp.rreps))
	}
	pr.handleRREP(1, reply(late))
	w.Sim.RunUntil(12 * time.Second)
	if len(sp.rreps) != 1 {
		t.Fatalf("after the sweep: spy heard %d rreps, want still 1 (no state to forward by)", len(sp.rreps))
	}
	if len(pr.SuccessorsOf(8)) != 1 {
		t.Fatal("the late reply's advertisement was not applied")
	}
}

// probeTap is an SRP node that also records every RREQ it hears, with
// its sender.
type probeTap struct {
	*Protocol
	from  []netstack.NodeID
	heard []rreq
}

func (p *probeTap) RecvControl(from netstack.NodeID, msg any) {
	if r, ok := msg.(*rreq); ok {
		p.from = append(p.from, from)
		p.heard = append(p.heard, *r)
	}
	p.Protocol.RecvControl(from, msg)
}

// TestPathReset drives §III's destination-controlled path reset on the
// chain 0-1-2-3. Node 2 holds a deep ordering (1, 5/7) toward 3 and
// answers 0's flood itself, so 0 installs (1, 7/9), past MaxDenom 8:
// completeDiscovery then has 0 probe the forward path with a D-bit RREQ,
// which 1 and 2 unicast toward 3 instead of flooding. The destination
// raises its sequence number once and replies, and the new reply installs
// the larger ordering (2, 3/4) along the chain, shallow enough that no
// second reset follows.
func TestPathReset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxDenom = 8
	var ps [4]*Protocol
	dst := &probeTap{}
	w := rtest.New(1, 120, func(id netstack.NodeID) netstack.Protocol {
		ps[id] = New(&cfg)
		if id == 3 {
			dst.Protocol = ps[id]
			return dst
		}
		return ps[id]
	}, rtest.Chain(4, 100), nil)
	assign(t, ps[2], 3, 3, label.Order{SN: 1, FD: frac.F{Num: 5, Den: 7}})
	w.Send(0, 3)
	w.Sim.RunUntil(2 * time.Second)

	if got := ps[0].maxDenomSeen; got != 9 {
		t.Fatalf("terminus saw denominators up to %d, want 9 (the intermediate reply's 7/9)", got)
	}
	if len(dst.heard) != 1 {
		t.Fatalf("destination heard %d RREQs, want 1 (the probe; node 2 answered the flood)", len(dst.heard))
	}
	if probe := dst.heard[0]; dst.from[0] != 2 || probe.Flags&flagD == 0 || probe.Src != 0 || probe.D != 2 || probe.DstSeq != 1 {
		t.Errorf("destination heard %+v from %d, want 0's D-bit probe for sequence number 1, relayed 0-1-2", probe, dst.from[0])
	}
	if ps[2].statRREQ != 1 {
		t.Errorf("node 2 relayed %d RREQs, want 1: the probe", ps[2].statRREQ)
	}
	if ps[3].mySeq != 2 || ps[3].seqIncrements != 1 {
		t.Errorf("destination sequence number %d after %d increments, want 2 after 1", ps[3].mySeq, ps[3].seqIncrements)
	}
	for i, want := range []label.Order{{SN: 2, FD: frac.F{Num: 3, Den: 4}}, {SN: 2, FD: frac.F{Num: 2, Den: 3}}, {SN: 2, FD: frac.F{Num: 1, Den: 2}}} {
		if got := ps[i].order(3); got != want {
			t.Errorf("node %d ordering toward 3 = %v, want %v", i, got, want)
		}
	}
	if w.MX.DataRecv != 1 {
		t.Errorf("delivered %d packets, want 1", w.MX.DataRecv)
	}
}

// TestNoResetStormBelowPathLength: a fresh path of n hops labels its
// terminus n/(n+1) whatever the destination's sequence number, so when
// MaxDenom is below n+1 a path reset cannot bring the terminus's
// denominator under it. The terminus must not ask for one: on the chain
// 0-1-2-3 (n = 3) each reply would otherwise trigger another reset, and the
// destination would raise its sequence number on every round trip.
func TestNoResetStormBelowPathLength(t *testing.T) {
	for _, maxDenom := range []uint32{2, 3} {
		cfg := DefaultConfig()
		cfg.MaxDenom = maxDenom
		var ps [4]*Protocol
		w := rtest.New(1, 120, func(id netstack.NodeID) netstack.Protocol {
			ps[id] = New(&cfg)
			return ps[id]
		}, rtest.Chain(4, 100), nil)
		w.Send(0, 3)
		w.Sim.RunUntil(2 * time.Second)
		if got := ps[3].SeqnoDelta(); got > 1 {
			t.Errorf("MaxDenom %d: destination raised its sequence number %d times, want at most 1", maxDenom, got)
		}
		if w.MX.DataRecv != 1 {
			t.Errorf("MaxDenom %d: delivered %d packets, want 1", maxDenom, w.MX.DataRecv)
		}
	}
}

// TestShortDeletePeriodLoops pins why validate refuses a DeletePeriod
// below ActiveRouteTimeout. Neighbour 0 holds node 1 as its successor
// toward 2, recorded at 1's ordering (1, 1/2), for ActiveRouteTimeout.
// 1's link to 2 breaks and its RERR is lost (0 is out of radio range here),
// so 0 keeps the successor. With DeletePeriod 2 s, 1's sweep at 10 s
// deletes the route while 0's successor entry lives to 11 s; 1 then
// relabels from Unassigned on 0's Hello, above the ordering 0 recorded,
// and each node routes to 2 through the other.
func TestShortDeletePeriodLoops(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DeletePeriod = 2 * time.Second
	if _, err := ConfigFromParams(map[string]float64{"delete_period_seconds": 2}); err == nil {
		t.Fatal("ConfigFromParams admits a delete period below the active route timeout")
	}
	var ps [3]*Protocol
	w := rtest.New(1, 10, func(id netstack.NodeID) netstack.Protocol {
		ps[id] = New(&cfg)
		return ps[id]
	}, rtest.Chain(3, 100), nil)
	w.Sim.RunUntil(time.Second)
	held := label.Order{SN: 1, FD: frac.MustNew(1, 2)}
	assign(t, ps[1], 2, 2, held)
	ps[0].setRoute(1, 2, held, 2, label.Unassigned, cfg.ActiveRouteTimeout)
	ps[1].linkBreak(2)

	w.Sim.RunUntil(10*time.Second + time.Millisecond)
	if r := ps[1].route(2); r != nil {
		t.Fatalf("node 1's sweep kept its broken route %+v", *r)
	}
	if got := ps[0].SuccessorsOf(2); len(got) != 1 || got[0] != 1 {
		t.Fatalf("node 0's successors toward 2 = %v, want [1] (recorded at %v)", got, held)
	}
	o0 := ps[0].order(2)
	ps[1].handleHello(0, &hello{Entries: []helloEntry{{Dst: 2, SN: o0.SN, F: o0.FD, D: 2}}})
	if got := ps[1].order(2); !got.Precedes(held) {
		t.Fatalf("node 1 relabeled to %v, want above the %v node 0 recorded", got, held)
	}
	if got := ps[1].SuccessorsOf(2); len(got) != 1 || got[0] != 0 {
		t.Fatalf("node 1's successors toward 2 = %v, want [0]: the loop 0-1-0", got)
	}
}
