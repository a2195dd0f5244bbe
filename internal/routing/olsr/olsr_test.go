package olsr

import (
	"maps"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/netstack"
	"slr/internal/routing/rcommon"
	"slr/internal/routing/rtest"
	"slr/internal/sim"
)

func factory(id netstack.NodeID) netstack.Protocol { return New() }

// selectMPRs runs the selection as of now, as the eager code did on every
// change of its inputs.
func (p *Protocol) selectMPRs() { p.selectMPRsAt(p.node.Now()) }

func TestNeighborDiscovery(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(3, 100), nil)
	w.Sim.RunUntil(10 * time.Second)
	p := w.Nodes[1].Protocol().(*Protocol)
	sym := 0
	for i := range p.nbrs.Len() {
		if p.nbrs.At(i).sym {
			sym++
		}
	}
	if sym != 2 {
		t.Fatalf("node 1 has %d symmetric neighbors, want 2", sym)
	}
	// Edge nodes see only one neighbor.
	p0 := w.Nodes[0].Protocol().(*Protocol)
	if len(p0.SuccessorsOf(1)) != 1 {
		t.Fatal("node 0 cannot route to direct neighbor")
	}
}

func TestProactiveRoutesBeforeTraffic(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(5, 100), nil)
	w.Sim.RunUntil(20 * time.Second) // several TC rounds
	// Every pair must be routable without any discovery.
	for i := range w.Nodes {
		p := w.Nodes[i].Protocol().(*Protocol)
		for j := range w.Nodes {
			if i == j {
				continue
			}
			if len(p.SuccessorsOf(netstack.NodeID(j))) == 0 {
				t.Fatalf("node %d has no route to %d", i, j)
			}
		}
	}
	// Data now flows with zero additional control on the data path.
	w.Send(0, 4)
	w.Sim.RunUntil(21 * time.Second)
	if w.MX.DataRecv != 1 {
		t.Fatalf("delivered %d, want 1 (drops %v)", w.MX.DataRecv, w.MX.DataDrops)
	}
	if h := w.MX.MeanHops(); h != 4 {
		t.Fatalf("hops = %v, want 4 (shortest path)", h)
	}
}

func TestMPRSelectionCoversTwoHop(t *testing.T) {
	// Star-of-chains: center 0 with arms; the center's MPR set must
	// cover all two-hop neighbors.
	pts := []geo.Point{
		{X: 0, Y: 0},    // 0 center
		{X: 100, Y: 0},  // 1
		{X: 200, Y: 0},  // 2 two-hop via 1
		{X: 0, Y: 100},  // 3
		{X: 0, Y: 200},  // 4 two-hop via 3
		{X: -100, Y: 0}, // 5 leaf neighbor
	}
	w := rtest.New(1, 120, factory, pts, nil)
	w.Sim.RunUntil(15 * time.Second)
	p := w.Nodes[0].Protocol().(*Protocol)
	p.settleMPRs()
	if !slices.Contains(p.mprs, 1) {
		t.Error("node 1 (only path to 2) not selected as MPR")
	}
	if !slices.Contains(p.mprs, 3) {
		t.Error("node 3 (only path to 4) not selected as MPR")
	}
}

func TestTCFloodBuildsRemoteRoutes(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(6, 100), nil)
	w.Sim.RunUntil(25 * time.Second)
	p := w.Nodes[0].Protocol().(*Protocol)
	if got := p.SuccessorsOf(5); len(got) != 1 || got[0] != 1 {
		t.Fatalf("route 0->5 next hop = %v, want [1]", got)
	}
	p.recompute()
	if r := p.routeTo(5); r.hops != 5 {
		t.Fatalf("route to 5 = %+v, want 5 hops", r)
	}
}

func TestPeriodicOverheadAccrues(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(4, 100), nil)
	w.Sim.RunUntil(30 * time.Second)
	// ~15 HELLO rounds x 4 nodes plus TC floods: at least 60 control
	// packets with zero data sent — the proactive cost.
	if w.MX.ControlTx < 60 {
		t.Fatalf("ControlTx = %d, want >= 60", w.MX.ControlTx)
	}
	if w.MX.DataSent != 0 {
		t.Fatal("unexpected data traffic")
	}
}

func TestLinkLossAgesOut(t *testing.T) {
	pts := rtest.Chain(3, 100)
	models := make([]mobility.Model, 3)
	models[2] = mobility.NewTrace([]mobility.TracePoint{
		{At: 0, Pos: pts[2]},
		{At: 10 * time.Second, Pos: pts[2]},
		{At: 10*time.Second + time.Millisecond, Pos: geo.Point{X: 9000}},
	})
	w := rtest.New(1, 120, factory, pts, models)
	w.Sim.RunUntil(9 * time.Second)
	p := w.Nodes[1].Protocol().(*Protocol)
	if len(p.SuccessorsOf(2)) != 1 {
		t.Fatal("route to 2 missing before departure")
	}
	w.Sim.RunUntil(25 * time.Second)
	if len(p.SuccessorsOf(2)) != 0 {
		t.Fatal("route to vanished node survived the hold time")
	}
}

func TestDeliveryInMobileNetwork(t *testing.T) {
	const n = 20
	positions := make([]geo.Point, n)
	models := make([]mobility.Model, n)
	rng := sim.New(13).Rand()
	terrain := geo.Terrain{Width: 600, Height: 300}
	for i := range models {
		models[i] = mobility.NewWaypoint(terrain, rng, 0, 10, 5*time.Second)
	}
	w := rtest.New(5, 250, factory, positions, models)
	for i := 10; i < 40; i++ {
		i := i
		w.Sim.At(sim.Time(i)*time.Second, func() {
			src := i % n
			w.Send(src, (src+1+i%(n-1))%n)
		})
	}
	w.Sim.RunUntil(45 * time.Second)
	if w.MX.DataRecv < 15 {
		t.Fatalf("delivered %d/30 (drops %v)", w.MX.DataRecv, w.MX.DataDrops)
	}
}

func TestRecomputeAllocFree(t *testing.T) {
	// Steady-state rebuilds must reuse the route table and a pooled
	// scratch (BFS queue, MPR candidates, bitsets and chains): zero
	// allocations once the scratch is warm, even when the version check is
	// defeated and the full BFS actually runs.
	w := rtest.New(1, 120, factory, rtest.Chain(5, 100), nil)
	w.Sim.RunUntil(20 * time.Second)
	p := w.Nodes[2].Protocol().(*Protocol)
	// Warm the scratch with one forced full rebuild of each computation.
	p.dirty, p.linkVer = true, p.linkVer+1
	p.selectMPRs()
	p.recompute()
	rebuild := func() {
		p.dirty = true
		p.linkVer++
		p.recompute()
	}
	cover := p.selectMPRs
	if raceEnabled {
		// sync.Pool drops a quarter of its Puts under the race detector,
		// on purpose; price the same computations on one held scratch.
		s := new(scratch)
		p.rebuildRoutes(s)
		p.coverTwoHop(s, p.node.Now())
		rebuild = func() { p.rebuildRoutes(s) }
		cover = func() { p.coverTwoHop(s, p.node.Now()) }
	}
	if allocs := testing.AllocsPerRun(100, rebuild); allocs != 0 {
		t.Errorf("steady-state recompute allocates %.0f objects/run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, cover); allocs != 0 {
		t.Errorf("steady-state selectMPRs allocates %.0f objects/run, want 0", allocs)
	}
}

// TestScratchIsolation pins that a scratch carries nothing from one node's
// call into another's. On a 5x5 grid, node A = 7 has larger ids and a
// different neighborhood than node B = 0: A's two-hop ids reach 17 where
// B's stop at 10, so the scratch A returns is longer than B needs, and A's
// symmetric neighbors 2 and 6 are B's two-hop neighbors, so a symmetric
// bit left over from A would drop them from B's cover. B's cover and route
// rebuild on A's scratch must equal the same calls on a fresh scratch, and
// the scratch A returns must point into none of A's tables.
func TestScratchIsolation(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Grid(5, 5, 100), nil)
	w.Sim.RunUntil(25 * time.Second)
	a := w.Nodes[7].Protocol().(*Protocol)
	b := w.Nodes[0].Protocol().(*Protocol)
	now := w.Sim.Now()
	run := func(s *scratch) ([]netstack.NodeID, map[netstack.NodeID]route) {
		b.coverTwoHop(s, now)
		b.rebuildRoutes(s)
		routes := map[netstack.NodeID]route{}
		for dst, r := range b.routes {
			if r.hops != 0 {
				routes[netstack.NodeID(dst)] = r
			}
		}
		return slices.Clone(b.mprs), routes
	}
	fresh := new(scratch)
	wantMPRs, wantRoutes := run(fresh)
	if len(wantMPRs) == 0 || len(wantRoutes) < 24 {
		t.Fatalf("node 0: MPRs %v, %d routes; want a converged grid", wantMPRs, len(wantRoutes))
	}

	used := new(scratch)
	a.coverTwoHop(used, now)
	a.rebuildRoutes(used)
	if len(used.covHead) <= len(fresh.covHead) || len(used.liveSym) <= len(fresh.liveSym) {
		t.Fatalf("node 7 left %d heads and %d candidates, node 0 needs %d and %d; want node 7's scratch the larger",
			len(used.covHead), len(used.liveSym), len(fresh.covHead), len(fresh.liveSym))
	}
	for i, e := range used.liveSym[:cap(used.liveSym)] {
		if e.nb != nil {
			t.Fatalf("returned scratch holds neighbor entry %d (id %d) of node 7", i, e.id)
		}
	}
	gotMPRs, gotRoutes := run(used)
	if !slices.Equal(gotMPRs, wantMPRs) {
		t.Errorf("node 0's MPRs on node 7's scratch = %v, on a fresh one %v", gotMPRs, wantMPRs)
	}
	if !maps.Equal(gotRoutes, wantRoutes) {
		t.Errorf("node 0's routes on node 7's scratch = %v, on a fresh one %v", gotRoutes, wantRoutes)
	}
}

// TestRecordSizes pins the per-entry sizes of the two tables that grow
// with the network: every node keeps a topology entry per TC originator
// it hears and a route per reachable node. On olsr-1000 the topology slab
// alone held 27 of 61 sampled MB at the end of a trial when an entry
// carried its own slice header (48 bytes with the key), and 22.7 of 38.2
// MB in use when it held the TC's sequence number beside a pointer to the
// advertised ids and a 64-bit key (32 bytes). Both tables are dense, slices
// indexed by node id with no key beside an entry; the element sizes are
// read from Protocol's own fields, so a field added to either record, or
// a table that stops being a plain slice, fails here.
func TestRecordSizes(t *testing.T) {
	if n := denseElem(t, "topo").Size(); n != 16 {
		t.Errorf("a topology-table entry is %d bytes, want 16 (one pointer to the TC body, expiry)", n)
	}
	if n := denseElem(t, "routes").Size(); n != 8 {
		t.Errorf("a route-table entry is %d bytes, want 8 (two int32s)", n)
	}
}

// denseElem returns the element type of Protocol's field name, which must
// be a slice.
func denseElem(t *testing.T, name string) reflect.Type {
	t.Helper()
	f, ok := reflect.TypeFor[Protocol]().FieldByName(name)
	if !ok || f.Type.Kind() != reflect.Slice {
		t.Fatalf("Protocol.%s is not a slice", name)
	}
	return f.Type.Elem()
}

func TestRecomputeSkipsWhenInputsUnchanged(t *testing.T) {
	// A dirty flag alone must not force a rebuild: with an unchanged
	// structure version and the clock before the expiry horizon, the
	// cached route table is provably current and the rebuild is skipped.
	w := rtest.New(1, 120, factory, rtest.Chain(5, 100), nil)
	w.Sim.RunUntil(20 * time.Second)
	p := w.Nodes[2].Protocol().(*Protocol)
	p.recompute() // settle the cache
	before := p.rebuilds
	for i := 0; i < 5; i++ {
		p.dirty = true // e.g. a content-identical TC refresh
		p.recompute()
	}
	if p.rebuilds != before {
		t.Errorf("recompute ran %d times on unchanged inputs, want 0", p.rebuilds-before)
	}
	p.dirty = true
	p.linkVer++ // a structural change invalidates the cache
	p.recompute()
	if p.rebuilds != before+1 {
		t.Errorf("recompute after version bump ran %d times, want 1", p.rebuilds-before)
	}
}

// TestExpiredLinkServedUntilDirty pins the route cache's rule as it
// stands: recompute consults the expiry horizon only once an input change
// has marked the table dirty, so past a neighbor's hold, with nothing
// heard, the table still routes over it until the sweep deletes the entry.
// Rebuilding at the horizon instead moves the OLSR goldens (ROADMAP).
func TestExpiredLinkServedUntilDirty(t *testing.T) {
	w, p := loneNode(1)
	const nb = 1
	p.handleHello(nb, &hello{From: nb, Neighbors: []netstack.NodeID{0}})
	if got := p.SuccessorsOf(nb); !slices.Equal(got, []netstack.NodeID{nb}) {
		t.Fatalf("route to a live symmetric neighbor = %v, want [%d]", got, nb)
	}
	if p.routeHorizon != neighborHold {
		t.Fatalf("routeHorizon = %v, want the neighbor's hold %v", p.routeHorizon, neighborHold)
	}
	w.Sim.RunUntil(neighborHold) // the link's expiry instant: dead from here
	if got := p.SuccessorsOf(nb); !slices.Equal(got, []netstack.NodeID{nb}) {
		t.Fatalf("route over the expired link = %v, want it still served as [%d]", got, nb)
	}
	p.expire()
	if got := p.SuccessorsOf(nb); got != nil {
		t.Fatalf("route after the sweep deleted the link = %v, want none", got)
	}
}

func TestMPRCoverProperty(t *testing.T) {
	// Property: for random neighborhoods, the MPR set is exactly the
	// greedy cover written from its definition (greedyCover), it covers
	// every strict two-hop neighbor reachable through a live symmetric
	// neighbor, and it is not empty while such a neighbor exists. The
	// neighborhoods mix in asymmetric and expired neighbors, list self and
	// symmetric neighbors among the two-hop ids, and tie cover counts; the
	// counts below make sure every trial set draws each case.
	const self = 0
	const now = 10 * time.Second
	rng := sim.New(21).Rand()
	var asym, expired, selfListed, symListed, tied int
	for trial := 0; trial < 200; trial++ {
		w, p := loneNode(int64(trial))
		w.Sim.RunUntil(now)
		for _, k := range rng.Perm(10)[:1+rng.Intn(8)] {
			expiry := sim.Time(time.Hour)
			if rng.Intn(5) == 0 {
				expiry = now - sim.Time(rng.Intn(2))*time.Second // dead at or before now
			}
			nb, _ := p.touch(netstack.NodeID(1+k), expiry)
			nb.sym = rng.Intn(4) > 0
			for range rng.Intn(7) {
				// 0 is self, 1-10 may be neighbors, 11-15 are not.
				if th := netstack.NodeID(rng.Intn(16)); !slices.Contains(nb.twoHop, th) {
					nb.twoHop = append(nb.twoHop, th)
				}
			}
		}
		live := func(id netstack.NodeID) bool {
			nb := p.nbrs.Get(uint32(id))
			return nb != nil && nb.sym && nb.expiry > now
		}
		// strict is each live symmetric neighbor's strict two-hop set.
		strict := make(map[netstack.NodeID][]netstack.NodeID)
		universe := make(map[netstack.NodeID]bool)
		for i := range p.nbrs.Len() {
			id, nb := p.nbrs.KeyAt(i), p.nbrs.At(i)
			switch {
			case !nb.sym:
				asym++
				continue
			case !live(id):
				expired++
				continue
			}
			strict[id] = []netstack.NodeID{}
			for _, th := range nb.twoHop {
				switch {
				case th == self:
					selfListed++
				case live(th):
					symListed++
				default:
					strict[id] = append(strict[id], th)
					universe[th] = true
				}
			}
		}
		best, atBest := 0, 0
		for _, ths := range strict {
			switch {
			case len(ths) > best:
				best, atBest = len(ths), 1
			case len(ths) == best:
				atBest++
			}
		}
		if best > 0 && atBest > 1 {
			tied++
		}

		p.selectMPRs()
		if want := greedyCover(p, now); !slices.Equal(p.mprs, want) {
			t.Fatalf("trial %d: MPRs %v, the greedy cover is %v", trial, p.mprs, want)
		}
		covered := make(map[netstack.NodeID]bool)
		for _, id := range p.mprs {
			for _, th := range strict[id] {
				covered[th] = true
			}
		}
		for th := range universe {
			if !covered[th] {
				t.Fatalf("trial %d: two-hop %d uncovered by MPRs %v", trial, th, p.mprs)
			}
		}
		if len(strict) > 0 && len(p.mprs) == 0 {
			t.Fatalf("trial %d: no MPR selected with %d live symmetric neighbors", trial, len(strict))
		}
	}
	t.Logf("cases drawn: %d asymmetric, %d expired, %d self listed, %d symmetric listed, %d tied", asym, expired, selfListed, symListed, tied)
	if asym == 0 || expired == 0 || selfListed == 0 || symListed == 0 || tied == 0 {
		t.Errorf("cases drawn: %d asymmetric, %d expired, %d self listed, %d symmetric listed, %d tied; want each > 0",
			asym, expired, selfListed, symListed, tied)
	}
}

func TestMPRSelectedOnDemand(t *testing.T) {
	// Center 4 of a 3x3 grid has the symmetric neighbors 1, 3, 5 and 7.
	w := rtest.New(1, 120, factory, rtest.Grid(3, 3, 100), nil)
	w.Sim.RunUntil(15 * time.Second)
	p := w.Nodes[4].Protocol().(*Protocol)
	// heard delivers a hello from a neighbor that lists 4 and twoHop, so
	// the neighbor's two-hop set changes and the MPR inputs with it.
	heard := func(from netstack.NodeID, twoHop ...netstack.NodeID) {
		p.handleHello(from, &hello{From: from, Neighbors: append([]netstack.NodeID{4}, twoHop...)})
	}

	// HELLOs heard between two of the node's own HELLOs only note.
	p.settleMPRs()
	runs := p.mprRuns
	heard(1, 0, 2, 900)
	heard(3, 0, 6, 901)
	if p.mprRuns != runs || !p.mprPending {
		t.Fatalf("hellos heard ran the cover %d times, pending %v; want 0 runs, pending", p.mprRuns-runs, p.mprPending)
	}

	// The next own HELLO runs the cover once, as of the last note, and
	// carries what a fresh selection at that instant chooses.
	at := p.mprAt
	p.sendHello()
	if p.mprRuns != runs+1 || p.mprPending {
		t.Fatalf("sendHello ran the cover %d times, pending %v; want 1 run, settled", p.mprRuns-runs, p.mprPending)
	}
	got := slices.Clone(p.mprs)
	if !slices.Contains(got, 1) || !slices.Contains(got, 3) {
		t.Fatalf("MPRs %v miss 1 or 3, the only paths to 900 and 901", got)
	}
	p.selectMPRsAt(at)
	if !slices.Equal(got, p.mprs) {
		t.Fatalf("settled MPRs %v, a fresh selection at %v chooses %v", got, at, p.mprs)
	}

	// A ControlFailed removal is not noted: it settles first, so the next
	// HELLO carries the set from before the removal, as the eager code did.
	heard(5, 2, 8, 902)
	runs = p.mprRuns
	p.ControlFailed(5, nil)
	if p.mprRuns != runs+1 || p.mprPending {
		t.Fatalf("ControlFailed ran the cover %d times, pending %v; want 1 run, settled", p.mprRuns-runs, p.mprPending)
	}
	if !slices.Contains(p.mprs, 5) {
		t.Fatalf("MPRs %v settled after removing 5, the only path to 902", p.mprs)
	}
	before := slices.Clone(p.mprs)
	p.sendHello()
	if p.mprRuns != runs+1 || !slices.Equal(p.mprs, before) {
		t.Fatalf("the HELLO after the removal re-selected: %d runs, MPRs %v, want %v", p.mprRuns-runs, p.mprs, before)
	}
}

// loneNode returns one stopped OLSR node, alone on the air: its clock
// moves only when the test runs the world, and no timer of its own fires.
func loneNode(seed int64) (*rtest.World, *Protocol) {
	var p *Protocol
	w := rtest.NewStopped(seed, 120, func(netstack.NodeID) netstack.Protocol {
		p = New()
		return p
	}, []geo.Point{{}}, nil)
	return w, p
}

// TestNoteOrSettle machine-checks the note-or-settle rule. One node hears
// HELLOs that flip symmetry and change two-hop sets, is swept, loses data
// and control unicasts, forwards data (which clears the route cache's
// dirty flag, on which the sweep's note depends) and sends HELLOs, in
// random order at random instants. After every sendHello its MPR set must
// equal the set the eager code would carry: a cover run from scratch, by
// greedyCover, at every noted change — a HELLO heard, DataFailed, a sweep
// when anything changed since the last route rebuild — and not at
// ControlFailed, whose removal the eager code never covered.
func TestNoteOrSettle(t *testing.T) {
	const self = 0
	checked := 0
	for seed := int64(1); seed <= 30; seed++ {
		w, p := loneNode(seed)
		rng := sim.NewRand(seed)
		var want []netstack.NodeID
		eager := func() { want = greedyCover(p, w.Sim.Now()) }
		// changed models the route cache's dirty flag: set by every
		// mutation of the link state, cleared by a route rebuild.
		changed := false
		now := sim.Time(0)
		for step := range 300 {
			now += sim.Time(rng.Intn(800)) * time.Millisecond
			w.Sim.RunUntil(now)
			to := netstack.NodeID(1 + rng.Intn(8))
			switch op := rng.Intn(12); {
			case op < 6:
				var nbs []netstack.NodeID
				if rng.Intn(3) > 0 { // the link is symmetric
					nbs = append(nbs, self)
				}
				for k := rng.Intn(6); k > 0; k-- {
					if id := netstack.NodeID(1 + rng.Intn(16)); id != to && !slices.Contains(nbs, id) {
						nbs = append(nbs, id)
					}
				}
				rng.Shuffle(len(nbs), func(i, j int) { nbs[i], nbs[j] = nbs[j], nbs[i] })
				p.handleHello(to, &hello{From: to, Neighbors: nbs})
				changed = true
				eager()
			case op == 6:
				for i := range p.nbrs.Len() {
					changed = changed || p.nbrs.At(i).expiry <= now
				}
				p.expire()
				if changed {
					eager()
				}
			case op == 7:
				p.DataFailed(to, &netstack.DataPacket{})
				changed = true
				eager()
			case op == 8:
				p.ControlFailed(to, nil)
				changed = true
			case op == 9:
				p.recompute()
				changed = false
			default:
				p.sendHello()
				if !slices.Equal(p.mprs, want) {
					t.Fatalf("seed %d step %d (t=%v): sendHello carries MPRs %v, a cover at every note leaves %v",
						seed, step, now, p.mprs, want)
				}
				checked++
			}
		}
	}
	t.Logf("%d HELLOs checked", checked)
}

// greedyCover is the MPR selection of node p as of now, written from its
// definition: among the live symmetric neighbors, repeatedly take the one
// that covers the most strict two-hop neighbors (not self, not a live
// symmetric neighbor) still uncovered, the lowest id on ties, until none
// covers any; if that takes none, take the lowest-id one.
func greedyCover(p *Protocol, now sim.Time) []netstack.NodeID {
	var cands []netstack.NodeID
	for i := range p.nbrs.Len() {
		if nb := p.nbrs.At(i); nb.sym && nb.expiry > now {
			cands = append(cands, p.nbrs.KeyAt(i))
		}
	}
	slices.Sort(cands)
	reach := make(map[netstack.NodeID][]netstack.NodeID)
	uncovered := make(map[netstack.NodeID]bool)
	for _, c := range cands {
		for _, th := range p.nbrs.Get(uint32(c)).twoHop {
			if th != p.self && !slices.Contains(cands, th) {
				reach[c] = append(reach[c], th)
				uncovered[th] = true
			}
		}
	}
	var mprs []netstack.NodeID
	for len(uncovered) > 0 {
		best, most := netstack.NodeID(-1), 0
		for _, c := range cands {
			n := 0
			for _, th := range reach[c] {
				if uncovered[th] {
					n++
				}
			}
			if n > most {
				best, most = c, n
			}
		}
		if most == 0 {
			break
		}
		mprs = append(mprs, best)
		for _, th := range reach[best] {
			delete(uncovered, th)
		}
	}
	if len(mprs) == 0 && len(cands) > 0 {
		mprs = append(mprs, cands[0])
	}
	return mprs
}

// TestNeighborTableLiveness pins the neighbor table's liveness signals: a
// HELLO (touch) makes or extends an entry, the once-a-second sweep ages out
// one whose HELLOs stopped, and a link-layer failure removes one at once.
func TestNeighborTableLiveness(t *testing.T) {
	w, p := loneNode(1)
	// sweepAt runs the sweep at instant at and reports whether it changed
	// the route inputs.
	sweepAt := func(at sim.Time) bool {
		w.Sim.RunUntil(at)
		ver := p.linkVer
		p.expire()
		return p.linkVer != ver
	}
	nb, old := p.touch(3, 6*time.Second)
	if p.nbrs.Get(3) != nb {
		t.Fatal("touch must create and return the entry")
	}
	if old.expiry != 0 || old.sym || old.selectsMe || old.twoHop != nil {
		t.Fatalf("touch must report no prior state on first contact: %+v", old)
	}
	nb.sym = true
	nb.twoHop = append(nb.twoHop, 9)
	same, old := p.touch(3, 8*time.Second)
	if same != nb {
		t.Fatal("touch must reuse the existing entry")
	}
	if old.expiry != 6*time.Second || !old.sym || len(old.twoHop) != 1 {
		t.Fatalf("touch must report the entry as it was before: %+v", old)
	}
	if nb.expiry != 8*time.Second || !nb.sym || len(nb.twoHop) != 1 {
		t.Fatalf("touch must extend liveness and keep the rest: %+v", *nb)
	}
	if sweepAt(3*time.Second) || p.nbrs.Len() != 1 {
		t.Fatal("nothing is due at 3s")
	}
	if !sweepAt(9*time.Second) || p.nbrs.Len() != 0 || p.nbrs.Get(3) != nil {
		t.Fatal("hello-silent neighbor must age out")
	}
	nb, _ = p.touch(5, 20*time.Second)
	nb.sym = true
	ver := p.linkVer
	p.removeNeighbor(5)
	if p.nbrs.Len() != 0 || p.linkVer == ver {
		t.Fatal("link-layer removal must drop a live symmetric link at once")
	}

	// A sweep raises the horizon to the earliest deadline it saw; a touch
	// with an earlier deadline must lower it again, or the early return
	// would hide that entry's expiry from the next sweep.
	p.touch(6, 30*time.Second)
	if sweepAt(10 * time.Second) {
		t.Fatal("nothing should expire at 10s")
	}
	p.touch(7, 12*time.Second)
	if !sweepAt(13*time.Second) || p.nbrs.Get(7) != nil || p.nbrs.Get(6) == nil {
		t.Fatal("an entry touched after a sweep must be swept once due")
	}
}

// TestNeighborTableExpireWhileWalking fills the neighbor table in scrambled
// id order with scrambled deadlines and sweeps it in steps. The sweep
// deletes while it walks the slots down, so each deletion moves a visited
// entry into the hole; every survivor must still be found under its own id
// with its own contents, and every due entry must be gone.
func TestNeighborTableExpireWhileWalking(t *testing.T) {
	const n = 300
	w, p := loneNode(1)
	expiry := make(map[netstack.NodeID]sim.Time)
	rng := sim.NewRand(5)
	for _, i := range rng.Perm(n) {
		id := netstack.NodeID(i)
		exp := sim.Time(1+rng.Intn(50)) * time.Second
		nb, _ := p.touch(id, exp)
		nb.twoHop = append(nb.twoHop, id, id+1)
		expiry[id] = exp
	}
	for now := sim.Time(0); now < 57*time.Second; now += 7 * time.Second {
		w.Sim.RunUntil(now)
		p.expire()
		live := 0
		for i := range n {
			id := netstack.NodeID(i)
			nb := p.nbrs.Get(uint32(id))
			if due := expiry[id] <= now; due != (nb == nil) {
				t.Fatalf("at %v: id %d (expiry %v) present = %v", now, id, expiry[id], nb != nil)
			}
			if nb == nil {
				continue
			}
			live++
			if nb.expiry != expiry[id] || len(nb.twoHop) != 2 || nb.twoHop[0] != id || nb.twoHop[1] != id+1 {
				t.Fatalf("at %v: id %d holds another entry's contents: %+v", now, id, *nb)
			}
		}
		if p.nbrs.Len() != live {
			t.Fatalf("at %v: Len = %d, %d live", now, p.nbrs.Len(), live)
		}
		for i := range p.nbrs.Len() {
			if id := p.nbrs.KeyAt(i); p.nbrs.Get(uint32(id)) != p.nbrs.At(i) {
				t.Fatalf("at %v: slot %d (id %d) is not what Get finds", now, i, id)
			}
		}
	}
	if p.nbrs.Len() != 0 {
		t.Fatalf("%d entries outlived every deadline", p.nbrs.Len())
	}
}

// flooded returns m as its originator would send it: carrying a fresh
// flood record.
func flooded(m tc) *tc {
	m.Flood = rcommon.NewFlood(0)
	return &m
}

// floodRecords returns n fresh flood records, made outside the code whose
// allocations a test counts.
func floodRecords(n int) []*rcommon.Flood {
	recs := make([]*rcommon.Flood, n)
	for i := range recs {
		recs[i] = rcommon.NewFlood(0)
	}
	return recs
}

// bodies returns n TC bodies with the sequence numbers after+1…after+n,
// body i advertising adv(i), made outside the code whose allocations a
// test counts.
func bodies(after uint32, n int, adv func(i int) []netstack.NodeID) []*tcBody {
	out := make([]*tcBody, n)
	for i := range out {
		out[i] = &tcBody{Seq: after + 1 + uint32(i), Advertised: adv(i)}
	}
	return out
}

func TestHandleTCAllocs(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(3, 100), nil)
	w.Sim.RunUntil(10 * time.Second)
	p := w.Nodes[0].Protocol().(*Protocol)
	// TTL 1: no relay; TestTCRelayAllocs prices that. The body is sorted,
	// as every originator sends it.
	m := flooded(tc{Orig: 9, Body: &tcBody{Seq: 1, Advertised: []netstack.NodeID{3, 5, 7}}, TTL: 1})
	p.handleTC(1, m)
	if te := p.topoOf(9); te.body != m.Body {
		t.Fatalf("topology entry of 9 = %+v, want the TC's body %+v", te, m.Body)
	}
	if n := testing.AllocsPerRun(200, func() { p.handleTC(1, m) }); n != 0 {
		t.Errorf("duplicate TC: %v allocs, want 0", n)
	}

	// Every new TC is a new flood with its own record and body, made
	// before the count starts. The node's first sighting then allocates
	// on the record alone: it grows the record's bit words and its
	// sighting list, which is 2 allocations (3 under the race detector,
	// whose instrumentation keeps append from growing a slice by a make in
	// place). handleTC may allocate exactly that and nothing per node.
	recs := floodRecords(201) // AllocsPerRun warms up once
	recordAllocs := testing.AllocsPerRun(200, func() {
		recs[0].Witness(p.self, p.node.Now(), p.swept)
		recs = recs[1:]
	})
	t.Logf("a record's first sighting: %v allocs", recordAllocs)
	var next []*tcBody
	send := func() {
		m.Flood, recs = recs[0], recs[1:]
		m.Body, next = next[0], next[1:]
		p.handleTC(1, m)
	}
	recs = floodRecords(201)
	next = bodies(m.Body.Seq, 201, func(int) []netstack.NodeID { return []netstack.NodeID{3, 5, 7} })
	if n := testing.AllocsPerRun(200, send); n != recordAllocs {
		t.Errorf("content-identical TC refresh: %v allocs, want the record's %v", n, recordAllocs)
	}
	// A changed body of any length is stored by pointing at it: a longer
	// one costs no more than a shorter one, and neither does a body
	// longer than every earlier one, which a copy into the entry would
	// have to grow for.
	linkVer := p.linkVer
	changed := [][]netstack.NodeID{{3, 4}, {2, 4, 6, 8, 10, 12, 14}}
	recs = floodRecords(201)
	next = bodies(m.Body.Seq, 201, func(i int) []netstack.NodeID { return changed[i%2] })
	if n := testing.AllocsPerRun(200, send); n != recordAllocs {
		t.Errorf("changed TC: %v allocs, want the record's %v", n, recordAllocs)
	}
	if p.linkVer == linkVer {
		t.Fatal("changed TCs did not register as topology changes")
	}
	const growing = 5
	recs = floodRecords(growing)
	next = bodies(m.Body.Seq, growing, func(i int) []netstack.NodeID {
		adv := make([]netstack.NodeID, 16<<i)
		for j := range adv {
			adv[j] = netstack.NodeID(j + 10)
		}
		return adv
	})
	if n := testing.AllocsPerRun(growing-1, send); n != recordAllocs {
		t.Errorf("TC longer than every earlier one: %v allocs, want the record's %v", n, recordAllocs)
	}
}

// TestTCBodySharedByReceivers pins the TC body's life on the air: the
// originator sorts it once, every receiver's topology entry holds the one
// body that went on the air, and a content-identical refresh leaves the
// receivers on the newer body, with their route inputs unchanged, so that
// the superseded one is garbage once its last copy has left the air.
func TestTCBodySharedByReceivers(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(3, 100), nil)
	w.Sim.RunUntil(10 * time.Second)
	p := w.Nodes[1].Protocol().(*Protocol)
	receivers := []*Protocol{w.Nodes[0].Protocol().(*Protocol), w.Nodes[2].Protocol().(*Protocol)}
	// Selectors that joined in descending id order sit in the neighbor
	// table's slots out of order.
	for _, id := range []netstack.NodeID{90, 70, 40} {
		nb, _ := p.touch(id, p.node.Now()+time.Minute)
		nb.selectsMe = true
	}
	// heard sends a TC from node 1 and returns the body both receivers
	// then hold, as a weak pointer: the test itself pins no body.
	heard := func() weak.Pointer[tcBody] {
		p.sendTC()
		w.Sim.RunUntil(w.Sim.Now() + 50*time.Millisecond)
		sent := receivers[0].topoOf(1)
		for _, r := range receivers {
			te := r.topoOf(1)
			if te.body == nil || te.body.Seq != p.tcSeq {
				t.Fatalf("node %d holds %+v for node 1, want the entry of TC %d", r.self, te, p.tcSeq)
			}
			if adv := te.body.Advertised; !slices.IsSorted(adv) || !slices.Contains(adv, 40) || len(adv) < 3 {
				t.Fatalf("node %d holds advertised %v, want node 1's selectors, sorted", r.self, adv)
			}
			if te.body != sent.body {
				t.Fatalf("nodes 0 and 2 hold different bodies of node 1's TC %d, want one shared body", p.tcSeq)
			}
		}
		return weak.Make(sent.body)
	}
	first := heard()
	linkVers := []uint64{receivers[0].linkVer, receivers[1].linkVer}
	second := heard()
	if first.Value() == second.Value() {
		t.Fatal("the refresh's body is the first TC's")
	}
	for i, r := range receivers {
		if r.linkVer != linkVers[i] {
			t.Errorf("node %d counted the content-identical refresh as a topology change", r.self)
		}
	}
	// Every copy of the first TC, relayed ones included, has left the air
	// a second later; nothing else may hold its body.
	w.Sim.RunUntil(w.Sim.Now() + time.Second)
	runtime.GC()
	if first.Value() != nil {
		t.Error("the superseded body is still reachable after its flood ended")
	}
}

// TestTCBodyAliasedNotCopied pins that handleTC stores the TC's own body
// pointer: a later, changed TC from the same originator replaces it
// without writing through it and counts as a topology change, and a
// content-identical refresh replaces it too without counting as one, so
// the entry pins no superseded body.
func TestTCBodyAliasedNotCopied(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(3, 100), nil)
	w.Sim.RunUntil(10 * time.Second)
	p0 := w.Nodes[0].Protocol().(*Protocol)
	p2 := w.Nodes[2].Protocol().(*Protocol)
	first := &tcBody{Seq: 1, Advertised: []netstack.NodeID{3, 5, 7}}
	m := flooded(tc{Orig: 9, Body: first, TTL: 1})
	p0.handleTC(1, m)
	p2.handleTC(1, m)
	for _, p := range []*Protocol{p0, p2} {
		if te := p.topoOf(9); te.body != first {
			t.Fatalf("node %d's entry of 9 = %+v, want it to hold the TC's body", p.self, te)
		}
	}
	seq := first.Seq
	for _, later := range [][]netstack.NodeID{{2, 4}, {1, 2, 4, 6, 8}} {
		seq++
		n := flooded(tc{Orig: 9, Body: &tcBody{Seq: seq, Advertised: later}, TTL: 1})
		linkVer := p0.linkVer
		p0.handleTC(1, n)
		if te := p0.topoOf(9); te.body != n.Body || !slices.Equal(te.body.Advertised, later) {
			t.Fatalf("entry of 9 = %+v after TC %d, want its body %v", *te.body, seq, later)
		}
		if p0.linkVer == linkVer {
			t.Fatalf("changed TC %d did not register as a topology change", seq)
		}
		if first.Seq != 1 || !slices.Equal(first.Advertised, []netstack.NodeID{3, 5, 7}) {
			t.Fatalf("TC %d rewrote the earlier body to %+v", seq, *first)
		}
	}
	// superseded hands p0 a TC with a fresh body of the entry's content
	// and the next sequence number, then a content-identical refresh, and
	// returns the first of the two as a weak pointer.
	superseded := func() weak.Pointer[tcBody] {
		held := p0.topoOf(9).body
		older := &tcBody{Seq: seq + 1, Advertised: slices.Clone(held.Advertised)}
		newer := &tcBody{Seq: seq + 2, Advertised: slices.Clone(held.Advertised)}
		seq += 2
		linkVer := p0.linkVer
		p0.handleTC(1, flooded(tc{Orig: 9, Body: older, TTL: 1}))
		p0.handleTC(1, flooded(tc{Orig: 9, Body: newer, TTL: 1}))
		if te := p0.topoOf(9); te.body != newer {
			t.Fatalf("entry of 9 holds %+v after a content-identical refresh, want its body %+v", *te.body, *newer)
		}
		if p0.linkVer != linkVer {
			t.Fatal("content-identical refreshes registered as topology changes")
		}
		return weak.Make(older)
	}
	older := superseded()
	runtime.GC()
	if older.Value() != nil {
		t.Error("the entry pins a body a content-identical refresh superseded")
	}
}

// TestTCRelayAllocs pins what relaying a TC costs the heap: over the same
// TC arriving with TTL 1, which is not relayed, exactly the relayed copy.
// The envelope and the jitter timer come from pools once earlier relays
// have left the air. The middle of a chain relays for both ends, which
// select it as their MPR.
func TestTCRelayAllocs(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(3, 100), nil)
	w.Sim.RunUntil(10 * time.Second)
	p := w.Nodes[1].Protocol().(*Protocol)
	if nb := p.nbrs.Get(0); nb == nil || !nb.selectsMe {
		t.Fatal("node 0 does not select node 1 as MPR")
	}
	m := tc{Orig: 9, Body: &tcBody{}}
	cost := func(ttl int) float64 {
		recs := floodRecords(201) // AllocsPerRelay warms up once
		next := bodies(m.Body.Seq, 201, func(int) []netstack.NodeID { return []netstack.NodeID{3, 5, 7} })
		return w.AllocsPerRelay(200, 50*time.Millisecond, func() {
			m.TTL, m.Flood, recs = ttl, recs[0], recs[1:]
			m.Body, next = next[0], next[1:]
			p.handleTC(0, &m)
		})
	}
	unrelayed, relayed := cost(1), cost(5)
	if relayed-unrelayed != 1 {
		t.Errorf("relayed TC: %v allocs, unrelayed %v; want exactly 1 more (the relayed copy)", relayed, unrelayed)
	}
}

// TestHelloBodySharedByReceivers pins the HELLO body's life: the sender
// lists its neighbors once, every receiver's two-hop set aliases the one
// array that went on the air, self included, and handleHello never
// writes to a body it holds or replaces.
func TestHelloBodySharedByReceivers(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(3, 100), nil)
	w.Sim.RunUntil(10 * time.Second)
	p := w.Nodes[1].Protocol().(*Protocol)
	// New neighbors change node 1's list, so both receivers take the next
	// HELLO's body.
	for _, id := range []netstack.NodeID{90, 70} {
		p.touch(id, p.node.Now()+time.Minute)
	}
	p.sendHello()
	w.Sim.RunUntil(w.Sim.Now() + 50*time.Millisecond)
	var sent []netstack.NodeID
	for _, i := range []netstack.NodeID{0, 2} {
		nb := w.Nodes[i].Protocol().(*Protocol).nbrs.Get(1)
		if nb == nil || !slices.Contains(nb.twoHop, 90) || !slices.Contains(nb.twoHop, i) {
			t.Fatalf("node %d holds %+v for node 1, want its new list, self included", i, nb)
		}
		if sent == nil {
			sent = nb.twoHop
		} else if &nb.twoHop[0] != &sent[0] || len(nb.twoHop) != len(sent) {
			t.Errorf("nodes 0 and 2 hold copies of node 1's HELLO body, want one shared array")
		}
	}
	want := slices.Clone(sent)

	// A body held, then the same set reordered, then a changed set: each
	// replaces the one before, and no write lands in any of them.
	p0 := w.Nodes[0].Protocol().(*Protocol)
	bodies := [][]netstack.NodeID{{5, 0, 7}, {0, 7, 5}, {0, 8}}
	snapshot := make([][]netstack.NodeID, len(bodies))
	for i, body := range bodies {
		snapshot[i] = slices.Clone(body)
		p0.handleHello(1, &hello{From: 1, Neighbors: body})
	}
	for i, body := range bodies {
		if !slices.Equal(body, snapshot[i]) {
			t.Errorf("handleHello rewrote body %d from %v to %v", i, snapshot[i], body)
		}
	}
	if nb := p0.nbrs.Get(1); &nb.twoHop[0] != &bodies[2][0] {
		t.Errorf("node 0 holds %v for node 1, want the last body aliased", nb.twoHop)
	}
	if !slices.Equal(sent, want) {
		t.Errorf("node 1's sent body became %v, want %v", sent, want)
	}
}

// TestHandleHelloAllocs pins what a HELLO with a changed neighbor set costs
// its receiver: nothing. The receiver aliases the body instead of copying
// it.
func TestHandleHelloAllocs(t *testing.T) {
	w := rtest.New(1, 120, factory, rtest.Chain(3, 100), nil)
	w.Sim.RunUntil(10 * time.Second)
	p := w.Nodes[0].Protocol().(*Protocol)
	cases := []struct {
		name   string
		bodies [][]netstack.NodeID
	}{
		{"grown", [][]netstack.NodeID{{0, 2, 5}, {0, 2, 5, 6, 7, 8, 9, 10}}},
		{"changed mid-list", [][]netstack.NodeID{{0, 2, 5, 6}, {0, 2, 6, 7}}},
	}
	for _, c := range cases {
		hellos := []*hello{{From: 1, Neighbors: c.bodies[0]}, {From: 1, Neighbors: c.bodies[1]}}
		k := 0
		p.handleHello(1, hellos[k])
		if n := testing.AllocsPerRun(200, func() {
			k ^= 1
			p.handleHello(1, hellos[k])
		}); n != 0 {
			t.Errorf("%s: %v allocs per changed HELLO, want 0", c.name, n)
		}
		if nb := p.nbrs.Get(1); &nb.twoHop[0] != &c.bodies[k][0] {
			t.Errorf("%s: node 0 holds %v for node 1, want the last body aliased", c.name, nb.twoHop)
		}
	}
}
