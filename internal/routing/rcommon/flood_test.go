package rcommon

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"slr/internal/netstack"
	"slr/internal/sim"
)

// dupCache is the per-node duplicate set that Flood replaced, kept as the
// reference Flood is held to: each (originator, id) is acted on once and
// remembered until the first Sweep at or after its deadline. Sightings
// live in a map under a packed key and are queued in insertion order,
// which is expiry order because the clock is monotone and the retention
// fixed.
type dupCache struct {
	m    map[uint64]sim.Time // key -> retention deadline
	q    []dupEntry          // insertion order == expiry order
	head int                 // first live queue slot; compacted when past the midpoint
	ttl  sim.Time
}

type dupEntry struct {
	key uint64
	exp sim.Time
}

func dupKey(orig netstack.NodeID, id uint32) uint64 {
	return uint64(uint32(orig))<<32 | uint64(id)
}

// Witness records the first sighting of (orig, id) and reports whether it
// was new; a repeat sighting inside the retention window returns false.
func (c *dupCache) Witness(orig netstack.NodeID, id uint32, now sim.Time) bool {
	key := dupKey(orig, id)
	if _, seen := c.m[key]; seen {
		return false
	}
	if c.m == nil {
		c.m = make(map[uint64]sim.Time)
	}
	exp := now + c.ttl
	c.m[key] = exp
	c.q = append(c.q, dupEntry{key: key, exp: exp})
	return true
}

// Sweep drops entries whose retention expired. A key re-seen after its
// first sighting expired appears in the queue twice; the stale queue entry
// is recognized by its mismatched deadline and skipped, so the refreshed
// sighting survives until its own deadline.
func (c *dupCache) Sweep(now sim.Time) {
	for c.head < len(c.q) && c.q[c.head].exp <= now {
		e := c.q[c.head]
		c.q[c.head] = dupEntry{}
		c.head++
		if exp, ok := c.m[e.key]; ok && exp == e.exp {
			delete(c.m, e.key)
		}
	}
	if c.head == len(c.q) {
		c.q, c.head = c.q[:0], 0
	} else if c.head > len(c.q)/2 {
		n := copy(c.q, c.q[c.head:])
		c.q, c.head = c.q[:n], 0
	}
}

// Schedule events, two bytes each: an op byte (mod 4) and an argument.
const (
	evTick      = iota // advance the clock by arg × 500 ms
	evOriginate        // flood slot arg>>2&3 starts a new flood now
	evReceive          // node arg&3 receives a copy of slot arg>>2&3's flood
	evSweep            // node arg&3 sweeps now
)

// floodSchedule encodes events as fuzz input.
func floodSchedule(events ...[2]byte) []byte {
	var b []byte
	for _, e := range events {
		b = append(b, e[0], e[1])
	}
	return b
}

func rx(node, slot byte) [2]byte    { return [2]byte{evReceive, slot<<2 | node} }
func sweep(node byte) [2]byte       { return [2]byte{evSweep, node} }
func orig(slot byte) [2]byte        { return [2]byte{evOriginate, slot << 2} }
func tick(halfSeconds byte) [2]byte { return [2]byte{evTick, halfSeconds} }

// FuzzFloodVsDupCache plays a schedule of originations, receipts, per-node
// sweeps and clock ticks over four flood slots and four nodes (ids spread
// over three bit words), answering every receipt both from the flood's
// record and from the receiving node's own dupCache; every answer must
// match. Ticks are multiples of 500 ms, so a receipt, a sweep and a
// sighting's deadline can coincide exactly. The hand-written seeds reach
// Witness's slow path both ways — a sighting still retained after the
// node swept past born + hold, and an expired one re-seen — and a late
// copy arriving long after born + hold; the random seeds mix everything.
func FuzzFloodVsDupCache(f *testing.F) {
	// Node 0 sights at 0 s, node 1 at 20 s. At 35 s both have swept past
	// born + 30 s: node 0's sighting is expired (re-sighting, new), node
	// 1's is not (slow path, duplicate) until its sweep at 50 s.
	f.Add(floodSchedule(orig(0), rx(0, 0), tick(40), rx(1, 0), rx(0, 0), tick(30),
		sweep(0), sweep(1), rx(0, 0), rx(1, 0), rx(0, 0), tick(30), rx(1, 0), sweep(1), rx(1, 0), rx(1, 0)))
	// A deadline and a sweep at the same instant expire the sighting; a
	// sweep one tick early does not.
	f.Add(floodSchedule(orig(1), rx(2, 1), tick(59), sweep(2), rx(2, 1), tick(1), rx(2, 1), sweep(2), rx(2, 1), rx(2, 1)))
	// Late copies: a node first reached long after born + hold, by a flood
	// whose other sightings have long expired, and a fresh flood in the
	// same slot beside it.
	f.Add(floodSchedule(orig(2), rx(0, 2), rx(3, 2), tick(200), sweep(3), rx(1, 2), rx(3, 2), orig(2), rx(3, 2),
		tick(100), sweep(0), sweep(1), rx(0, 2), rx(1, 2), rx(0, 2)))
	rng := rand.New(rand.NewSource(27))
	for range 4 {
		b := make([]byte, 600)
		rng.Read(b)
		f.Add(b)
	}

	nodes := [4]netstack.NodeID{0, 5, 64, 130}
	const network = 131 // the nodes above are ids of a network this large
	f.Fuzz(func(t *testing.T, schedule []byte) {
		var (
			now    sim.Time
			floods [4]*Flood
			ids    [4]uint32
			refs   [4]dupCache
			swept  [4]sim.Time
		)
		for i := range refs {
			refs[i].ttl = FloodHold
		}
		for i := 0; i+1 < len(schedule); i += 2 {
			op, arg := schedule[i]%4, schedule[i+1]
			n, s := arg&3, arg>>2&3
			switch op {
			case evTick:
				now += sim.Time(arg) * 500 * time.Millisecond
			case evOriginate:
				ids[s]++
				floods[s] = NewFlood(now, network)
			case evReceive:
				if floods[s] == nil {
					continue
				}
				want := refs[n].Witness(netstack.NodeID(s), ids[s], now)
				if got := floods[s].Witness(nodes[n], now, swept[n]); got != want {
					t.Fatalf("event %d at %v: node %d, flood %d.%d born %v, swept %v: Witness = %v, reference %v",
						i/2, now, nodes[n], s, ids[s], floods[s].born, swept[n], got, want)
				}
			case evSweep:
				refs[n].Sweep(now)
				swept[n] = now
			}
		}
	})
}

// TestRecordArraysSizedAtBirth pins that a record's per-id array comes
// with the record, at the network's size: a Witness or an Engage at the
// highest id keeps its array and its length.
func TestRecordArraysSizedAtBirth(t *testing.T) {
	const n = 130
	f := NewFlood(0, n)
	seen := &f.seen[0]
	if !f.Witness(n-1, 0, 0) {
		t.Fatal("the highest id's first sighting is not new")
	}
	if &f.seen[0] != seen || len(f.seen) != (n+63)/64 {
		t.Errorf("Witness(%d) left %d bit words at another array, want the record's %d", n-1, len(f.seen), (n+63)/64)
	}
	c := NewComputation[compState](n)
	index := &c.index[0]
	if _, fresh := c.Engage(n-1, 0, 0, FloodHold); !fresh {
		t.Fatal("the highest id's first engagement is not fresh")
	}
	if &c.index[0] != index || len(c.index) != n || c.State(n-1, 0, FloodHold) == nil {
		t.Errorf("Engage(%d) left an index of %d slots at another array, want the record's %d", n-1, len(c.index), n)
	}
}

func TestFloodWithoutRecordPanics(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "no Flood record") {
			t.Fatalf("Witness on a nil record: panic %q, want one naming the missing record", msg)
		}
	}()
	var f *Flood
	f.Witness(1, 0, 0)
}

// compTable is the per-node computation table that Computation replaced,
// kept as the reference Computation is held to: SRP's and LDR's state per
// (source, rreqid), made at a node's first receipt of the RREQ and
// deleted by the node's first sweep at or after its deadline, at + hold.
type compTable struct {
	m    map[uint64]*compRef
	hold sim.Time
}

type compRef struct {
	exp sim.Time
	val compState
}

// compState stands for a protocol's payload: what engaged the node, and
// whether it has replied.
type compState struct {
	lastHop int32
	mark    uint32
	replied bool
}

// Engage returns the state of (orig, id) and whether it was made now.
func (c *compTable) Engage(orig netstack.NodeID, id uint32, now sim.Time) (*compState, bool) {
	key := dupKey(orig, id)
	if r, ok := c.m[key]; ok {
		return &r.val, false
	}
	if c.m == nil {
		c.m = make(map[uint64]*compRef)
	}
	r := &compRef{exp: now + c.hold}
	c.m[key] = r
	return &r.val, true
}

// State returns the state of (orig, id), or nil.
func (c *compTable) State(orig netstack.NodeID, id uint32) *compState {
	if r, ok := c.m[dupKey(orig, id)]; ok {
		return &r.val
	}
	return nil
}

// Sweep deletes every entry whose deadline has passed.
func (c *compTable) Sweep(now sim.Time) {
	for key, r := range c.m {
		if r.exp <= now {
			delete(c.m, key)
		}
	}
}

// Computation schedule events, two bytes each: an op byte (mod 6) and an
// argument; the argument encodes a node (arg&3) and a flood slot
// (arg>>2&3), or a tick's length.
const (
	cvTick      = iota // advance the clock by arg × 500 ms
	cvOriginate        // flood slot s starts a new computation now
	cvEngage           // node n receives a copy of slot s's RREQ
	cvLookup           // node n receives a RREP of slot s's computation
	cvReply            // node n marks slot s's computation replied, if engaged
	cvSweep            // node n sweeps now
)

func cv(op, node, slot byte) [2]byte { return [2]byte{op, slot<<2 | node} }
func ctick(halfSeconds byte) [2]byte { return [2]byte{cvTick, halfSeconds} }

// FuzzComputationVsTable plays a schedule of originations, RREQ receipts,
// RREP lookups, replied marks, per-node sweeps and clock ticks over four
// computation slots and four nodes (ids 0, 5, 64, 130, so the index grows
// in steps), under a hold of 0.5–60 s, and answers each event both from
// the computation's record and from the node's own compTable: engagement,
// the state found and its content must match. Ticks are multiples of
// 500 ms, so a receipt, a sweep and a deadline can coincide. Hand seeds:
// SRP's hold at 2 s with a sweep landing exactly on the deadline and a
// re-engagement re-stamped, then repeated; LDR's 30 s with one node's state
// expired and re-engaged while a later-engaged node's state is retained
// (both ways of the slow path of Flood); and a RREP for a state already
// swept. The random seeds mix everything under 2 s, 30 s and 60 s.
func FuzzComputationVsTable(f *testing.F) {
	// Hold 2 s: engage at 0; a sweep at 1.5 s keeps it, one at 2 s drops
	// it; the late copy re-engages, and its re-stamped state survives the
	// sweep at 3.5 s and dies at the one at 4 s.
	f.Add(uint8(3), floodSchedule(cv(cvOriginate, 0, 0), cv(cvEngage, 1, 0), cv(cvReply, 1, 0), ctick(3), cv(cvSweep, 1, 0),
		cv(cvLookup, 1, 0), cv(cvEngage, 1, 0), ctick(1), cv(cvSweep, 1, 0), cv(cvLookup, 1, 0), cv(cvEngage, 1, 0),
		cv(cvLookup, 1, 0), ctick(3), cv(cvSweep, 1, 0), cv(cvEngage, 1, 0), cv(cvLookup, 1, 0), ctick(1),
		cv(cvSweep, 1, 0), cv(cvLookup, 1, 0), cv(cvEngage, 1, 0), cv(cvEngage, 1, 0)))
	// Hold 30 s: node 0 engages at 0 s, node 1 at 20 s; at 35 s both have
	// swept past the flood's birth + 30 s: node 0's state is gone (RREP
	// finds nothing, a copy re-engages it), node 1's is kept until its
	// sweep at 50 s.
	f.Add(uint8(59), floodSchedule(cv(cvOriginate, 0, 1), cv(cvEngage, 0, 1), cv(cvReply, 0, 1), ctick(40),
		cv(cvEngage, 1, 1), cv(cvEngage, 0, 1), ctick(30), cv(cvSweep, 0, 0), cv(cvSweep, 1, 0), cv(cvLookup, 0, 1),
		cv(cvLookup, 1, 1), cv(cvEngage, 0, 1), cv(cvEngage, 1, 1), cv(cvLookup, 0, 1), ctick(30), cv(cvSweep, 1, 0),
		cv(cvLookup, 1, 1), cv(cvEngage, 1, 1), cv(cvEngage, 3, 1), cv(cvReply, 3, 1), cv(cvLookup, 3, 1)))
	// Two computations side by side under 60 s: a new one in a slot whose
	// old one some nodes still hold, and late copies of both.
	f.Add(uint8(119), floodSchedule(cv(cvOriginate, 0, 2), cv(cvEngage, 2, 2), cv(cvEngage, 3, 2), ctick(100),
		cv(cvOriginate, 0, 3), cv(cvEngage, 2, 3), cv(cvSweep, 2, 0), cv(cvSweep, 3, 0), cv(cvLookup, 2, 2),
		cv(cvLookup, 3, 2), ctick(40), cv(cvSweep, 3, 0), cv(cvEngage, 3, 2), cv(cvReply, 2, 3), cv(cvLookup, 2, 3)))
	rng := rand.New(rand.NewSource(39))
	for _, hold := range []uint8{3, 59, 119} {
		b := make([]byte, 600)
		rng.Read(b)
		f.Add(hold, b)
	}

	nodes := [4]netstack.NodeID{0, 5, 64, 130}
	const network = 131 // the nodes above are ids of a network this large
	f.Fuzz(func(t *testing.T, holdHalfSeconds uint8, schedule []byte) {
		hold := sim.Time(holdHalfSeconds%120+1) * 500 * time.Millisecond
		var (
			now   sim.Time
			comps [4]*Computation[compState]
			ids   [4]uint32
			refs  [4]compTable
			swept [4]sim.Time
		)
		for i := range refs {
			refs[i].hold = hold
		}
		for i := 0; i+1 < len(schedule); i += 2 {
			op, arg := schedule[i]%6, schedule[i+1]
			n, s := arg&3, arg>>2&3
			if op == cvTick {
				now += sim.Time(arg) * 500 * time.Millisecond
				continue
			}
			if op == cvSweep {
				refs[n].Sweep(now)
				swept[n] = now
				continue
			}
			if op == cvOriginate {
				ids[s]++
				comps[s] = NewComputation[compState](network)
				continue
			}
			if comps[s] == nil {
				continue
			}
			c, ref, orig := comps[s], &refs[n], netstack.NodeID(s)
			where := func() string {
				return fmt.Sprintf("event %d at %v: node %d, computation %d.%d, swept %v, hold %v",
					i/2, now, nodes[n], s, ids[s], swept[n], hold)
			}
			switch op {
			case cvEngage:
				want, wantFresh := ref.Engage(orig, ids[s], now)
				got, fresh := c.Engage(nodes[n], now, swept[n], hold)
				if fresh != wantFresh {
					t.Fatalf("%s: Engage fresh = %v, reference %v", where(), fresh, wantFresh)
				}
				if fresh {
					if *got != (compState{}) {
						t.Fatalf("%s: fresh state %+v, want zero", where(), *got)
					}
					*got = compState{lastHop: int32(n), mark: uint32(i)}
					*want = *got
				}
			case cvLookup, cvReply:
				want, got := ref.State(orig, ids[s]), c.State(nodes[n], swept[n], hold)
				if (got == nil) != (want == nil) {
					t.Fatalf("%s: State found %v, reference %v", where(), got != nil, want != nil)
				}
				if got == nil {
					continue
				}
				if *got != *want {
					t.Fatalf("%s: State %+v, reference %+v", where(), *got, *want)
				}
				if op == cvReply {
					got.replied, want.replied = true, true
				}
			}
		}
	})
}

func TestComputationWithoutRecordPanics(t *testing.T) {
	for name, call := range map[string]func(*Computation[compState]){
		"Engage": func(c *Computation[compState]) { c.Engage(1, 0, 0, FloodHold) },
		"State":  func(c *Computation[compState]) { c.State(1, 0, FloodHold) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "no Computation record") {
					t.Fatalf("%s on a nil record: panic %q, want one naming the missing record", name, msg)
				}
			}()
			call(nil)
		}()
	}
}
