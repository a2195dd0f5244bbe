package dsr

import (
	"slices"
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/netstack"
	"slr/internal/routing/rcommon"
	"slr/internal/routing/rtest"
	"slr/internal/sim"
)

func factory(id netstack.NodeID) netstack.Protocol { return New(DefaultConfig()) }

// flooded returns r as its originator would send it: carrying a fresh
// flood record, sized to the network of p, the node it is handed to.
func flooded(p *Protocol, r rreq) *rreq {
	r.Flood = rcommon.NewFlood(0, p.node.NetworkSize())
	return &r
}

func TestHandleRREQAllocs(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(3, 100), nil)
	p := w.Nodes[1].Protocol().(*Protocol)
	req := flooded(p, rreq{Src: 0, ID: 1, Dst: 2, TTL: 5})
	p.handleRREQ(0, req)
	if _, ok := p.lookup(0); !ok {
		t.Fatal("the RREQ cached no reverse route")
	}
	if n := testing.AllocsPerRun(200, func() { p.handleRREQ(0, req) }); n != 0 {
		t.Errorf("duplicate RREQ: %v allocs, want 0", n)
	}
}

// TestRREQRelayAllocs pins what relaying a RREQ costs the heap: over the
// same RREQ arriving with TTL 1, which is not relayed, exactly the relayed
// copy and its path, which grows by the relay. The envelope and the jitter
// timer come from pools once earlier relays have left the air.
func TestRREQRelayAllocs(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(3, 100), nil)
	p := w.Nodes[1].Protocol().(*Protocol)
	id := uint32(0)
	cost := func(ttl int) float64 {
		reqs := make([]*rreq, 201) // AllocsPerRelay warms up once
		for i := range reqs {
			id++
			// Dst 99 is no node: nothing ever answers, so every copy relays.
			reqs[i] = flooded(p, rreq{Src: 0, ID: id, Dst: 99, TTL: ttl})
		}
		return w.AllocsPerRelay(200, 50*time.Millisecond, func() {
			p.handleRREQ(0, reqs[0])
			reqs = reqs[1:]
		})
	}
	unrelayed, relayed := cost(1), cost(5)
	if relayed-unrelayed != 2 {
		t.Errorf("relayed RREQ: %v allocs, unrelayed %v; want exactly 2 more (the relayed copy and its path)", relayed, unrelayed)
	}
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

func TestSourceRouteCarried(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(4, 100), nil)
	w.Send(0, 3)
	w.Sim.RunUntil(3 * time.Second)
	// The source keeps the discovered route in cache.
	src := w.Nodes[0].Protocol().(*Protocol)
	path, ok := src.lookup(3)
	if !ok {
		t.Fatal("source has no cached route")
	}
	want := []netstack.NodeID{1, 2, 3}
	if !slices.Equal(path, want) {
		t.Fatalf("cached path = %v, want %v", path, want)
	}
}

func TestPrefixesCached(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(4, 100), nil)
	w.Send(0, 3)
	w.Sim.RunUntil(3 * time.Second)
	src := w.Nodes[0].Protocol().(*Protocol)
	for dst := 1; dst <= 3; dst++ {
		if _, ok := src.lookup(netstack.NodeID(dst)); !ok {
			t.Errorf("prefix route to %d not cached", dst)
		}
	}
}

func TestReplyFromCache(t *testing.T) {
	// After 0 learns a route to 4, node 5 (near 0 and 1 only) requests 4
	// with a non-propagating RREQ; node 1's cache answers.
	pts := rtest.Chain(5, 100)
	pts = append(pts, geo.Point{X: 50, Y: 90})
	w := rtest.New(1, 120, factory, pts, nil)
	w.Send(0, 4)
	w.Sim.RunUntil(3 * time.Second)
	w.Send(5, 4)
	w.Sim.RunUntil(6 * time.Second)
	if w.MX.DataRecv != 2 {
		t.Fatalf("delivered %d, want 2 (drops %v)", w.MX.DataRecv, w.MX.DataDrops)
	}
}

func TestSalvageOnLinkBreak(t *testing.T) {
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
	if w.MX.DataRecv < 18 {
		t.Fatalf("delivered %d/30 (drops %v)", w.MX.DataRecv, w.MX.DataDrops)
	}
}

func TestRERRPurgesStaleCache(t *testing.T) {
	p := New(DefaultConfig())
	w := rtest.New(1, 120, func(netstack.NodeID) netstack.Protocol { return p },
		[]geo.Point{{X: 0}}, nil)
	_ = w
	p.addRoute([]netstack.NodeID{1, 2, 3})
	if _, ok := p.lookup(3); !ok {
		t.Fatal("route not cached")
	}
	p.handleRERR(1, &rerr{A: 1, B: 2, Route: []netstack.NodeID{0}, Idx: 0})
	if _, ok := p.lookup(3); ok {
		t.Fatal("stale route survived RERR")
	}
	// The 0->1 prefix does not use the broken link and must survive.
	if _, ok := p.lookup(1); !ok {
		t.Fatal("unaffected prefix was purged")
	}
}

func TestSpliceRejectsLoops(t *testing.T) {
	// Splicing src=0 path=[1] self=2 with cached route [1,5] repeats 1.
	if full := spliceFull(0, []netstack.NodeID{1}, 2, []netstack.NodeID{1, 5}); full != nil {
		t.Fatalf("loopy splice accepted: %v", full)
	}
	full := spliceFull(0, []netstack.NodeID{1}, 2, []netstack.NodeID{3, 4})
	want := []netstack.NodeID{0, 1, 2, 3, 4}
	if !slices.Equal(full, want) {
		t.Fatalf("splice = %v, want %v", full, want)
	}
}

// TestAddRouteAllocs pins what caching a learned path costs the heap once
// the cache has room for it: one copy of the path, which every new prefix
// shares, however many hops it has.
func TestAddRouteAllocs(t *testing.T) {
	p := New(DefaultConfig())
	rtest.New(1, 120, func(netstack.NodeID) netstack.Protocol { return p },
		[]geo.Point{{X: 0}}, nil)
	path := []netstack.NodeID{1, 2, 3, 4, 5, 6, 7, 8}
	p.addRoute(path) // gives every destination its slot
	n := testing.AllocsPerRun(100, func() {
		for _, dst := range path {
			p.cache[dst] = p.cache[dst][:0]
		}
		p.addRoute(path)
	})
	if n != 1 {
		t.Errorf("caching an %d-hop path: %v allocs, want 1 (one shared copy)", len(path), n)
	}
	for end := 1; end <= len(path); end++ {
		if got, _ := p.lookup(path[end-1]); !slices.Equal(got, path[:end]) {
			t.Fatalf("route to %d = %v, want %v", path[end-1], got, path[:end])
		}
	}
}

// TestReverseRouteAllocs pins what caching the reverse route of a new RREQ
// costs the heap when every prefix of it is already cached: nothing. The
// record is reversed into the node's scratch, not a fresh slice, so a new
// RREQ over a known path allocates on its flood record alone, which the
// node's first sighting grows.
func TestReverseRouteAllocs(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(3, 100), nil)
	p := w.Nodes[1].Protocol().(*Protocol)
	// Dst 99 is no node and TTL 1 stops the relay: the RREQ is only heard.
	req := rreq{Src: 0, Dst: 99, Path: []netstack.NodeID{4, 5, 6}, TTL: 1}
	p.handleRREQ(0, flooded(p, req)) // caches 6, 6-5, 6-5-4 and 6-5-4-0
	if got, _ := p.lookup(0); !slices.Equal(got, []netstack.NodeID{6, 5, 4, 0}) {
		t.Fatalf("reverse route to 0 = %v, want [6 5 4 0]", got)
	}
	recs := floodRecords(p, 201) // AllocsPerRun warms up once
	recordAllocs := testing.AllocsPerRun(200, func() {
		recs[0].Witness(p.self, p.node.Now(), p.swept)
		recs = recs[1:]
	})
	recs = floodRecords(p, 201)
	n := testing.AllocsPerRun(200, func() {
		req.ID++
		req.Flood, recs = recs[0], recs[1:]
		p.handleRREQ(0, &req)
	})
	if n != recordAllocs {
		t.Errorf("new RREQ over a cached path: %v allocs, want the flood record's %v", n, recordAllocs)
	}
}

// floodRecords returns n fresh flood records sized to p's network, made
// outside the code whose allocations a test counts.
func floodRecords(p *Protocol, n int) []*rcommon.Flood {
	recs := make([]*rcommon.Flood, n)
	for i := range recs {
		recs[i] = rcommon.NewFlood(0, p.node.NetworkSize())
	}
	return recs
}

func TestCacheEviction(t *testing.T) {
	p := New(DefaultConfig())
	w := rtest.New(1, 120, func(netstack.NodeID) netstack.Protocol { return p },
		[]geo.Point{{X: 0}}, nil)
	_ = w
	p.insert(9, []netstack.NodeID{1, 9})
	p.insert(9, []netstack.NodeID{2, 3, 9})
	p.insert(9, []netstack.NodeID{4, 5, 6, 9})
	p.insert(9, []netstack.NodeID{7, 9}) // evicts the longest
	routes := p.cache[9]
	if len(routes) != routesPerDest {
		t.Fatalf("cache size = %d, want %d", len(routes), routesPerDest)
	}
	for _, r := range routes {
		if len(r.path) == 4 {
			t.Fatal("longest route not evicted")
		}
	}
	// Lookup returns the shortest.
	got, _ := p.lookup(9)
	if len(got) != 2 {
		t.Fatalf("lookup returned %v, want a 2-hop path", got)
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

func TestNonPropagatingFirstAttempt(t *testing.T) {
	// First RREQ has TTL 1: in a 3-hop chain the destination cannot hear
	// it, so discovery needs at least two attempts; the second floods.
	w := rtest.New(1, 120, factory, rtest.Chain(4, 100), nil)
	w.Send(0, 3)
	w.Sim.RunUntil(10 * time.Second)
	if w.MX.DataRecv != 1 {
		t.Fatalf("delivered %d, want 1", w.MX.DataRecv)
	}
}
