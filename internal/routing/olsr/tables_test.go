package olsr

import (
	"maps"
	"math"
	"slices"
	"testing"
	"time"

	"slr/internal/netstack"
	"slr/internal/routing/rcommon"
	"slr/internal/sim"
)

// maxOrig bounds the TC originators and advertised ids of FuzzDenseTables
// and is the size of its network: a few hundred, so the dense tables hold
// far more slots than live entries. Most
// TCs come from the hot ids below hot, which also fill most advertised
// sets, so an originator is heard again before and after its entry
// expires and routes run several hops deep.
const (
	maxOrig = 300
	hot     = 10
)

// refTopo is the topology table written from its definition, in a map:
// handleTC's acceptance and refresh rule, and the sweep under its horizon.
type refTopo struct {
	self    netstack.NodeID
	hold    sim.Time
	entries map[netstack.NodeID]topoEntry
	horizon sim.Time
}

// accept applies a TC from orig heard at now and reports whether it
// changed a link: an entry is written when there is none or the stored
// sequence number is not newer, and the write is a refresh, no change,
// when the old entry is live and advertises the same ids.
func (r *refTopo) accept(orig netstack.NodeID, body *tcBody, now sim.Time) (changed bool) {
	if orig == r.self {
		return false
	}
	old, ok := r.entries[orig]
	if ok && rcommon.SeqGT(old.body.Seq, body.Seq) {
		return false
	}
	exp := now + r.hold
	r.entries[orig] = topoEntry{body: body, expiry: exp}
	r.horizon = min(r.horizon, exp)
	return !(ok && old.expiry > now && slices.Equal(old.body.Advertised, body.Advertised))
}

// sweep deletes the entries expired at now, unless now is before the
// horizon, and reports whether it deleted any. A sweep that walks sets
// the horizon to the earliest expiry left, forever when none is.
func (r *refTopo) sweep(now sim.Time) (deleted bool) {
	if now < r.horizon {
		return false
	}
	r.horizon = forever
	for _, id := range slices.Sorted(maps.Keys(r.entries)) {
		if exp := r.entries[id].expiry; exp <= now {
			delete(r.entries, id)
			deleted = true
		} else {
			r.horizon = min(r.horizon, exp)
		}
	}
	return deleted
}

// routes is the route table as of now by breadth-first search from p's
// live symmetric neighbors, in id order, over the reference's live
// entries, each in advertised order: the first path found to a node is
// its route.
func (r *refTopo) routes(p *Protocol, now sim.Time) map[netstack.NodeID]route {
	routes := make(map[netstack.NodeID]route)
	var queue []netstack.NodeID
	for i := range p.nbrs.Len() {
		if nb := p.nbrs.At(i); nb.sym && nb.expiry > now {
			queue = append(queue, p.nbrs.KeyAt(i))
		}
	}
	slices.Sort(queue)
	for _, id := range queue {
		routes[id] = route{nh: int32(id), hops: 1}
	}
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		te, ok := r.entries[cur]
		if !ok || te.expiry <= now {
			continue
		}
		for _, adv := range te.body.Advertised {
			if _, seen := routes[adv]; adv != r.self && !seen {
				routes[adv] = route{nh: routes[cur].nh, hops: routes[cur].hops + 1}
				queue = append(queue, adv)
			}
		}
	}
	return routes
}

// advertised returns variant v, of four, of originator orig's advertised
// set, sorted and without duplicates: hot ids and one id up to maxOrig.
// Variants repeat, so an originator often re-advertises the same ids (a
// refresh), and the odd ones name node 0, the node under test.
func advertised(orig netstack.NodeID, v int) []netstack.NodeID {
	ids := []netstack.NodeID{(orig*7 + netstack.NodeID(v)*37) % maxOrig}
	for k := range v + 2 {
		ids = append(ids, 1+(orig+netstack.NodeID(k*k+v))%(2*hot))
	}
	if v%2 == 1 {
		ids = append(ids, 0)
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// FuzzDenseTables holds the dense topology and route tables to map-based
// references. One node hears, at instants that advance by up to 0.75 s a
// step, TCs from originators below maxOrig (itself included) with new,
// repeated and older sequence numbers that wrap around 2^32, HELLOs that
// make and break symmetric links with the low ids, and sweeps. After every
// step:
//
//   - every topology entry, past the table's end too, equals the
//     reference's, and a TC moved linkVer exactly when the reference says
//     it changed a link (a sweep that deleted one moved it, too);
//   - topoHorizon equals the reference's horizon;
//   - rebuildRoutes leaves exactly the routes of a breadth-first search
//     over the reference, and none past the table's end.
func FuzzDenseTables(f *testing.F) {
	// Random steps, half of them TCs; then steps with a TC one time in
	// sixty, which let the table empty out between them.
	for seed := range int64(8) {
		rng := sim.NewRand(seed)
		b := make([]byte, 4*400)
		for i := range b {
			b[i] = byte(rng.Intn(256))
			if i%4 == 0 && seed >= 6 && rng.Intn(60) > 0 {
				b[i] |= 4
			}
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, p := loneNode(1, maxOrig)
		ref := &refTopo{self: p.self, hold: topologyHold, entries: make(map[netstack.NodeID]topoEntry)}
		sent := make(map[netstack.NodeID]uint32) // newest sequence number per originator
		s := new(scratch)
		now := sim.Time(0)
		for step := 0; len(data) >= 4; step++ {
			op, a, b, c := data[0], data[1], data[2], data[3]
			data = data[4:]
			now += sim.Time(c%4) * 250 * time.Millisecond
			w.Sim.RunUntil(now)
			linkVer := p.linkVer
			switch op % 8 {
			case 0, 1, 2, 3:
				orig := netstack.NodeID(a % hot)
				if b&1 == 1 {
					orig = netstack.NodeID(a) % maxOrig
				}
				last, ok := sent[orig]
				if !ok {
					last = math.MaxUint32 - 2
				}
				seq := last // repeated
				switch (b >> 1) % 4 {
				case 0, 1:
					seq = last + 1 + uint32(c>>3)%3
					sent[orig] = seq
				case 3:
					seq = last - 1 - uint32(c>>3)%8
				}
				body := &tcBody{Seq: seq, Advertised: advertised(orig, int(c>>5)%4)}
				p.handleTC(netstack.NodeID(1+a%hot), &tc{Orig: orig, Body: body, TTL: 1, Flood: rcommon.NewFlood(now, maxOrig)})
				if changed := ref.accept(orig, body, now); changed != (p.linkVer != linkVer) {
					t.Fatalf("step %d: TC %d from %d changed a link = %v, linkVer %d -> %d",
						step, seq, orig, changed, linkVer, p.linkVer)
				}
			case 4, 5:
				from := netstack.NodeID(1 + a%hot)
				var nbs []netstack.NodeID
				if b&1 == 1 {
					nbs = append(nbs, p.self)
				}
				nbs = append(nbs, netstack.NodeID(1+b%(2*hot)), netstack.NodeID(1+c%(2*hot)))
				p.handleHello(from, &hello{From: from, Neighbors: nbs})
			default:
				p.expire()
				if ref.sweep(now) && p.linkVer == linkVer {
					t.Fatalf("step %d: the sweep at %v deleted topology entries but left linkVer", step, now)
				}
			}

			for id := netstack.NodeID(-1); id < netstack.NodeID(max(len(p.topo), maxOrig+50)+2); id++ {
				if got, want := p.topoOf(id), ref.entries[id]; got != want {
					t.Fatalf("step %d: topology entry of %d = %+v, want %+v", step, id, got, want)
				}
			}
			if p.topoHorizon != ref.horizon {
				t.Fatalf("step %d: topoHorizon %v, want %v", step, p.topoHorizon, ref.horizon)
			}
			p.rebuildRoutes(s)
			want := ref.routes(p, now)
			n := 0
			for id := netstack.NodeID(-1); id < netstack.NodeID(max(len(p.routes), maxOrig+50)+2); id++ {
				got := p.routeTo(id)
				if got != want[id] {
					t.Fatalf("step %d: route to %d = %+v, want %+v", step, id, got, want[id])
				}
				if got.hops != 0 {
					n++
				}
			}
			if n != len(want) {
				t.Fatalf("step %d: %d routes, want %d", step, n, len(want))
			}
		}
	})
}
