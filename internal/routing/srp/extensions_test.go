package srp

import (
	"slices"
	"testing"
	"time"

	"slr/internal/frac"
	"slr/internal/label"
	"slr/internal/netstack"
	"slr/internal/routing/rtest"
	"slr/internal/sim"
)

func TestHelloAdvertisementsBuildRoutes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HelloInterval = 2 * time.Second
	w := rtest.New(1, 120, factory(cfg), rtest.Chain(4, 100), nil)
	// One discovery seeds routes; hellos then propagate them to nodes
	// that never asked.
	w.Send(0, 3)
	w.Sim.RunUntil(15 * time.Second)
	// Node 2 should have learned a route toward 0 (it relayed, but
	// hellos also advertise and refresh).
	p2 := w.Nodes[2].Protocol().(*Protocol)
	if len(p2.SuccessorsOf(0)) == 0 && len(p2.SuccessorsOf(3)) == 0 {
		t.Fatal("hello advertisements built no routes at relay")
	}
	if err := w.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
	if w.MX.DataRecv != 1 {
		t.Fatalf("delivered %d, want 1", w.MX.DataRecv)
	}
}

// TestHelloRespectsFanout verifies a Hello advertises at most helloFanout
// destinations, and that a node with more active routes than that rotates
// through all of them over successive Hellos.
func TestHelloRespectsFanout(t *testing.T) {
	w, pr, sp := relayWorld(t, DefaultConfig())
	const routes = helloFanout + 3
	for dst := netstack.NodeID(2); dst < 2+routes; dst++ {
		assign(t, pr, 1, dst, label.Order{SN: 1, FD: frac.F{Num: 1, Den: 2}})
	}
	pr.sendHello()
	pr.sendHello()
	w.Sim.RunUntil(time.Second)
	if len(sp.hellos) != 2 {
		t.Fatalf("spy heard %d hellos, want 2", len(sp.hellos))
	}
	seen := map[netstack.NodeID]bool{}
	for i, h := range sp.hellos {
		if len(h.Entries) != helloFanout {
			t.Errorf("hello %d advertises %d destinations, want %d", i, len(h.Entries), helloFanout)
		}
		for _, e := range h.Entries {
			seen[e.Dst] = true
		}
	}
	if len(seen) != routes {
		t.Errorf("two hellos advertised %d distinct destinations, want all %d", len(seen), routes)
	}
}

func TestMultipathPolicies(t *testing.T) {
	now := sim.Time(0)
	r := &route{succ: []successor{
		{id: 1, dist: 2, expiry: sim.Time(time.Minute)},
		{id: 2, dist: 1, expiry: sim.Time(time.Minute)},
		{id: 3, dist: 2, expiry: sim.Time(time.Minute)},
	}}
	// MinHop always picks 2.
	for i := 0; i < 5; i++ {
		got, ok := r.pick(PolicyMinHop, nil, now)
		if !ok || got != 2 {
			t.Fatalf("minhop pick = %v", got)
		}
	}
	// RoundRobin cycles all three.
	seen := make(map[netstack.NodeID]bool)
	for i := 0; i < 6; i++ {
		got, ok := r.pick(PolicyRoundRobin, nil, now)
		if !ok {
			t.Fatal("rr pick failed")
		}
		seen[got] = true
	}
	if len(seen) != 3 {
		t.Fatalf("round robin visited %v, want all three", seen)
	}
	// Random uses the rng and stays within the live set.
	rng := sim.New(3).Rand()
	for i := 0; i < 20; i++ {
		got, ok := r.pick(PolicyRandom, rng, now)
		if !ok || got < 1 || got > 3 {
			t.Fatalf("random pick = %v", got)
		}
	}
}

func TestRoundRobinDeliveryStaysLoopFree(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Multipath = PolicyRoundRobin
	w := rtest.New(1, 160, factory(cfg), rtest.Grid(3, 3, 100), nil)
	for i := 0; i < 12; i++ {
		i := i
		w.Sim.At(sim.Time(i)*500*time.Millisecond, func() { w.Send(0, 8) })
	}
	w.Sim.RunUntil(15 * time.Second)
	if err := w.CheckLoopFree(); err != nil {
		t.Fatal(err)
	}
	if w.MX.DataRecv < 10 {
		t.Fatalf("delivered %d/12", w.MX.DataRecv)
	}
}

func TestHelloAdvertisementFeasibilityGuard(t *testing.T) {
	// A hello advertising an ordering that is not feasible for the
	// receiver must be ignored (Theorem 2 guard inside setRoute).
	cfg := DefaultConfig()
	p := New(&cfg)
	w := rtest.New(1, 120, func(netstack.NodeID) netstack.Protocol { return p },
		rtest.Chain(1, 100), nil)
	_ = w
	// Give the node the ordering (2, 1/3) for dst 9, through next hop 7.
	assign(t, p, 7, 9, label.Order{SN: 2, FD: frac.MustNew(1, 3)})
	// Stale advertisement: older seqno.
	p.handleHello(5, &hello{Entries: []helloEntry{{Dst: 9, SN: 1, F: frac.MustNew(1, 8), D: 1}}})
	if got := p.SuccessorsOf(9); !slices.Equal(got, []netstack.NodeID{7}) {
		t.Fatalf("successors %v after an infeasible hello advertisement, want [7]", got)
	}
	// Feasible advertisement: same seqno, smaller fraction.
	p.handleHello(5, &hello{Entries: []helloEntry{{Dst: 9, SN: 2, F: frac.MustNew(1, 8), D: 1}}})
	if got := p.SuccessorsOf(9); !slices.Equal(got, []netstack.NodeID{5, 7}) {
		t.Fatalf("successors %v after a feasible hello advertisement, want [5 7]", got)
	}
}
