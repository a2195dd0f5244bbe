package rcommon

import (
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
// live in an IDTable under a packed key and are queued in insertion
// order, which is expiry order because the clock is monotone and the
// retention fixed.
type dupCache struct {
	m    IDTable[sim.Time] // key -> retention deadline
	q    []dupEntry        // insertion order == expiry order
	head int               // first live queue slot; compacted when past the midpoint
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
	if c.m.Get(key) != nil {
		return false
	}
	v, _ := c.m.Put(key)
	*v = now + c.ttl
	c.q = append(c.q, dupEntry{key: key, exp: *v})
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
		if exp := c.m.Get(e.key); exp != nil && *exp == e.exp {
			c.m.Delete(e.key)
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
	f.Fuzz(func(t *testing.T, schedule []byte) {
		var (
			now    sim.Time
			floods [4]*Flood
			ids    [4]uint32
			refs   [4]dupCache
			swept  [4]sim.Time
		)
		for i := range refs {
			refs[i].ttl = floodHold
		}
		for i := 0; i+1 < len(schedule); i += 2 {
			op, arg := schedule[i]%4, schedule[i+1]
			n, s := arg&3, arg>>2&3
			switch op {
			case evTick:
				now += sim.Time(arg) * 500 * time.Millisecond
			case evOriginate:
				ids[s]++
				floods[s] = NewFlood(now)
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

func TestFloodWithoutRecordPanics(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "no Flood record") {
			t.Fatalf("Witness on a nil record: panic %q, want one naming the missing record", msg)
		}
	}()
	var f *Flood
	f.Witness(1, 0, 0)
}
