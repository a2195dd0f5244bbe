package srp

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"slr/internal/frac"
	"slr/internal/label"
	"slr/internal/netstack"
	"slr/internal/routing/rcommon"
	"slr/internal/routing/rtest"
	"slr/internal/sim"
)

func TestBestPrefersMinDistance(t *testing.T) {
	r := &route{succ: []successor{
		{id: 1, dist: 3, expiry: sim.Time(10 * time.Second)},
		{id: 2, dist: 1, expiry: sim.Time(10 * time.Second)},
		{id: 3, dist: 2, expiry: sim.Time(10 * time.Second)},
	}}
	got, ok := r.best(0)
	if !ok || got != 2 {
		t.Fatalf("best = %v, want 2", got)
	}
}

func TestBestSkipsExpired(t *testing.T) {
	now := sim.Time(5 * time.Second)
	r := &route{succ: []successor{
		{id: 1, dist: 1, expiry: sim.Time(time.Second)}, // expired
		{id: 2, dist: 9, expiry: sim.Time(time.Minute)},
	}}
	got, ok := r.best(now)
	if !ok || got != 2 {
		t.Fatalf("best = %v, want 2", got)
	}
	if r.find(1) != nil {
		t.Fatal("expired successor not reaped")
	}
	if r.active(now) != true {
		t.Fatal("route with live successor not active")
	}
}

func TestBestTieBreaksByID(t *testing.T) {
	r := &route{succ: []successor{
		{id: 7, dist: 2, expiry: sim.Time(time.Minute)},
		{id: 3, dist: 2, expiry: sim.Time(time.Minute)},
	}}
	got, _ := r.best(0)
	if got != 3 {
		t.Fatalf("best = %v, want 3 (lowest id)", got)
	}
}

func TestDropSuccessorInvalidates(t *testing.T) {
	r := &route{succ: []successor{
		{id: 1, dist: 1, expiry: sim.Time(time.Minute)},
	}}
	if invalid := r.dropSuccessor(1, 0); !invalid {
		t.Fatal("dropping last successor must invalidate")
	}
	if r.active(0) {
		t.Fatal("route still active")
	}
}

func TestPruneOutOfOrder(t *testing.T) {
	g := label.Order{SN: 2, FD: frac.MustNew(1, 2)}
	r := &route{succ: []successor{
		// In order: g ≺ stored (stored fraction below 1/2, same sn).
		{id: 1, order: label.Order{SN: 2, FD: frac.MustNew(1, 3)}, expiry: sim.Time(time.Minute)},
		// Out of order: larger fraction.
		{id: 2, order: label.Order{SN: 2, FD: frac.MustNew(2, 3)}, expiry: sim.Time(time.Minute)},
		// Out of order: stale sequence number.
		{id: 3, order: label.Order{SN: 1, FD: frac.MustNew(1, 4)}, expiry: sim.Time(time.Minute)},
	}}
	pruned := r.pruneOutOfOrder(g)
	if pruned != 2 {
		t.Fatalf("pruned %d, want 2", pruned)
	}
	if r.find(1) == nil {
		t.Fatal("in-order successor pruned")
	}
}

// TestRecordSizes pins the records SRP's state is made of. A flood engages
// nearly every node in its computation and leaves each a reverse route
// with a successor or two, so on flood-5000 these records are most of the
// live heap: in a heap profile at the end of a trial the successor arrays
// held 32 MB, the route slab 23 MB and the computation slab 16 MB of
// about 97 MB when each padded a node id or a distance out to 8 bytes
// (40, 72 and 40 bytes). A computation's per-node entry now lives in the
// flood's record (rcommon.Computation): the state plus the instant the
// node engaged, read here from the record's own entry type. A route
// always holds a finite ordering and keeps no flag about it, so its
// routes-table entry, with the 32-bit key, is one 64-byte cache line, read
// here from the table's slab; a field added to route spills it to 72.
func TestRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(successor{}); n != 32 {
		t.Errorf("successor is %d bytes, want 32 (ordering, expiry, 32-bit id and distance)", n)
	}
	if n := unsafe.Sizeof(route{}); n != 56 {
		t.Errorf("route is %d bytes, want 56 (ordering, successor slice, expiry, 32-bit distance and cursor)", n)
	}
	if n := slabElem[rcommon.IDTable[route]](t, "slab").Size(); n != 64 {
		t.Errorf("a routes-table entry is %d bytes, want 64 (route, 32-bit key)", n)
	}
	if n := unsafe.Sizeof(rreqState{}); n != 24 {
		t.Errorf("rreqState is %d bytes, want 24 (ordering, 32-bit last hop, flag)", n)
	}
	if n := slabElem[rcommon.Computation[rreqState]](t, "entries").Size(); n != 32 {
		t.Errorf("a computation's per-node entry is %d bytes, want 32 (engagement instant, rreqState)", n)
	}
}

// slabElem returns the element type of T's slice field named field.
func slabElem[T any](t *testing.T, field string) reflect.Type {
	t.Helper()
	f, ok := reflect.TypeFor[T]().FieldByName(field)
	if !ok || f.Type.Kind() != reflect.Slice {
		t.Fatalf("%v has no slice field %s", reflect.TypeFor[T](), field)
	}
	return f.Type.Elem()
}

// succModel is the reference for one route's successor set: a map from
// next hop to what setRoute recorded, in full-width types.
type succModel map[netstack.NodeID]modelSucc

type modelSucc struct {
	order  label.Order
	expiry sim.Time
	dist   int
}

// live returns the ids of the model's successors that outlive now, sorted.
func (m succModel) live(now sim.Time) []netstack.NodeID {
	var out []netstack.NodeID
	for id, s := range m {
		if s.expiry > now {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// prune drops every successor g does not precede (Algorithm 1 line 13).
func (m succModel) prune(g label.Order) {
	for id, s := range m {
		if !g.Precedes(s.order) {
			delete(m, id)
		}
	}
}

// TestSuccessorSetMatchesMap drives one route's successor set through
// setRoute, refresh, dropSuccessor, pruneOutOfOrder and the passing of
// time, with ids and distances up to MaxInt32, and holds it to a map after
// every step: the live successors, the best one (least distance, then
// least id) and whether the route is active. After every step, too, every
// route in the table holds a finite ordering: only setRoute adds one, and
// only with the finite ordering it computed.
func TestSuccessorSetMatchesMap(t *testing.T) {
	const steps = 200_000
	w := rtest.New(1, 100, factory(DefaultConfig()), rtest.Chain(1, 100), nil)
	pr := w.Nodes[0].Protocol().(*Protocol)
	rng := rand.New(rand.NewSource(36))
	const dst = netstack.NodeID(math.MaxInt32 - 2)
	ids := []netstack.NodeID{0, 1, 2, 3, 7, 1 << 20, math.MaxInt32 - 1, math.MaxInt32}
	dists := []int{0, 1, 2, 3, 35, math.MaxInt32 - 1, math.MaxInt32}
	pick := func() netstack.NodeID { return ids[rng.Intn(len(ids))] }
	order := func(sn label.SeqNo) label.Order {
		den := uint32(1 + rng.Intn(64))
		return label.Order{SN: sn, FD: frac.F{Num: uint32(rng.Intn(int(den))), Den: den}}
	}
	m := succModel{}
	sn := label.SeqNo(1)
	installed, pruned, expired := 0, 0, 0
	for s := 0; s < steps; s++ {
		now := w.Sim.Now()
		switch op := rng.Intn(100); {
		case op < 45:
			if rng.Intn(40) == 0 {
				sn++
			}
			from, dist := pick(), dists[rng.Intn(len(dists))]
			adv := order(sn)
			c := label.Unassigned
			if rng.Intn(3) == 0 {
				c = order(sn)
			}
			lifetime := sim.Time(rng.Intn(20_000)) * sim.Time(time.Millisecond)
			if g := pr.setRoute(from, dst, adv, dist, c, lifetime); g.Finite() {
				if lifetime <= 0 {
					lifetime = pr.cfg.ActiveRouteTimeout
				}
				m[from] = modelSucc{order: adv, expiry: now + lifetime, dist: dist}
				n := len(m)
				m.prune(g)
				pruned += n - len(m)
				installed++
			}
		case op < 60:
			next := pick()
			if r := pr.route(dst); r != nil {
				pr.refresh(r, next)
			}
			if e, ok := m[next]; ok {
				e.expiry = now + pr.cfg.ActiveRouteTimeout
				m[next] = e
			}
		case op < 70:
			next := pick()
			delete(m, next)
			if r := pr.route(dst); r != nil {
				if invalid := r.dropSuccessor(next, now); invalid != (len(m.live(now)) == 0) {
					t.Fatalf("step %d: dropSuccessor(%d) reported invalid=%v with live set %v", s, next, invalid, m.live(now))
				}
			}
		case op < 75:
			g := order(sn)
			if r := pr.route(dst); r != nil {
				r.pruneOutOfOrder(g)
			}
			m.prune(g)
		default:
			n := len(m.live(now))
			w.Sim.RunUntil(now + sim.Time(rng.Intn(3_000))*sim.Time(time.Millisecond))
			expired += n - len(m.live(w.Sim.Now()))
		}

		for i := 0; i < pr.routes.Len(); i++ {
			if o := pr.routes.At(i).order; !o.Finite() {
				t.Fatalf("step %d: the route to %d holds ordering %v, not finite", s, pr.routes.KeyAt(i), o)
			}
		}
		now = w.Sim.Now()
		want := m.live(now)
		r := pr.route(dst)
		if r == nil {
			if len(m) != 0 {
				t.Fatalf("step %d: no route, model holds %v", s, m)
			}
			continue
		}
		if got := r.successors(now); !slices.Equal(got, want) {
			t.Fatalf("step %d: successors %v, model %v", s, got, want)
		}
		wantBest, wantOK := netstack.NodeID(-1), false
		for _, id := range want {
			if !wantOK || m[id].dist < m[wantBest].dist {
				wantBest, wantOK = id, true
			}
		}
		if got, ok := r.best(now); got != wantBest || ok != wantOK {
			t.Fatalf("step %d: best = %d, %v; model %d, %v (live %v)", s, got, ok, wantBest, wantOK, want)
		}
		if got := r.active(now); got != wantOK {
			t.Fatalf("step %d: active = %v, model %v", s, got, wantOK)
		}
		// best and active reaped the expired successors; so does the model.
		for id, e := range m {
			if e.expiry <= now {
				delete(m, id)
			}
		}
	}
	if installed < steps/10 || pruned < steps/100 || expired < steps/100 {
		t.Fatalf("walk installed %d successors, pruned %d, expired %d: too few to test the set", installed, pruned, expired)
	}
}
