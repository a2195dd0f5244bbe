package rcommon

import (
	"slr/internal/netstack"
	"slr/internal/sim"
)

// DupCache suppresses duplicate processing of flooded control messages:
// each (originator, id) is acted on once and then remembered for a
// retention window. Protocols Sweep it from their periodic housekeeping.
//
// The cache is a flood-rate hot path (every received TC/RREQ probes it),
// so the key is packed into one uint64 — originators are registered node
// ids, dense and non-negative, so 32 bits each side loses nothing — and
// sightings live in an IDTable, deadline by value, with no heap object
// per sighting. They are additionally queued in insertion order. Because
// the clock is monotone and the retention is fixed, insertion order is
// expiry order, so Sweep pops expired sightings from the queue head in
// O(expired) instead of walking the whole table once per housekeeping
// tick.
type DupCache struct {
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

// NewDupCache returns a cache retaining sightings for ttl.
func NewDupCache(ttl sim.Time) *DupCache {
	return &DupCache{ttl: ttl}
}

// Witness records the first sighting of (orig, id) and reports whether it
// was new; a repeat sighting inside the retention window returns false.
func (c *DupCache) Witness(orig netstack.NodeID, id uint32, now sim.Time) bool {
	key := dupKey(orig, id)
	if c.m.Get(key) != nil {
		return false
	}
	c.insert(key, now+c.ttl)
	return true
}

// Mark records (orig, id) as seen without checking — originators mark
// their own floods before transmitting.
func (c *DupCache) Mark(orig netstack.NodeID, id uint32, now sim.Time) {
	c.insert(dupKey(orig, id), now+c.ttl)
}

func (c *DupCache) insert(key uint64, exp sim.Time) {
	v, _ := c.m.Put(key)
	*v = exp
	c.q = append(c.q, dupEntry{key: key, exp: exp})
}

// Sweep drops entries whose retention expired. A key re-seen after its
// first sighting expired appears in the queue twice; the stale queue entry
// is recognized by its mismatched deadline and skipped, so the refreshed
// sighting survives until its own deadline.
func (c *DupCache) Sweep(now sim.Time) {
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

// Len returns the number of retained sightings.
func (c *DupCache) Len() int { return c.m.Len() }
