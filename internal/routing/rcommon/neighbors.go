package rcommon

import (
	"slr/internal/netstack"
	"slr/internal/sim"
)

// Neighbor is one entry of a NeighborTable: hello-refreshed liveness plus
// the link-state facts proactive protocols advertise about it.
type Neighbor struct {
	// Sym marks the link symmetric: the neighbor's hello listed us.
	Sym bool
	// Expiry is the hello-liveness deadline; a neighbor whose hellos stop
	// ages out at Expiry.
	Expiry sim.Time
	// TwoHop is the neighbor list of the neighbor's last changed hello —
	// the two-hop neighborhood MPR selection covers — in no particular
	// order, without duplicates. A protocol may alias the hello's own
	// slice, which its sender never writes after send, so the list may
	// name this node, and readers skip it. OLSR's hello lists every live
	// neighbor of its sender, heard or symmetric, with no link type, so
	// TwoHop includes asymmetric links (RFC 3626 §8.3.1 keeps only
	// symmetric ones). It needs no deadlines of its own: the hello that
	// writes it also writes Expiry, so every two-hop entry lives exactly as
	// long as the neighbor that reported it. Protocols that never populate
	// it simply leave it nil.
	TwoHop []netstack.NodeID
	// TwoHopMax is an upper bound on the ids in TwoHop, set by the writer.
	// It lets id-indexed scratch (MPR cover bitsets) be sized without
	// scanning the list.
	TwoHopMax netstack.NodeID
	// SelectsMe marks that the neighbor chose this node as multipoint
	// relay.
	SelectsMe bool
}

// NeighborTable tracks one node's neighbors with the two liveness signals
// of §V's evaluation: hello receipt (Touch extends Expiry) and link-layer
// delivery failure (Remove kills the entry immediately, without waiting
// for the hold time to expire).
//
// Entries live by value in an IDTable, so the IDTable's rules carry over:
// a *Neighbor from Get, Touch or At is valid until the next Touch, Remove
// or Expire, and a walk over slots 0…Len()-1 is deterministic but not
// sorted by id.
type NeighborTable struct {
	m IDTable[Neighbor]
	// horizon is a lower bound on every liveness deadline in the table.
	// Before it, a sweep provably removes nothing and Expire returns
	// immediately; each real sweep recomputes the exact minimum and Touch
	// lowers it for the deadlines it writes.
	horizon sim.Time
}

// NewNeighborTable returns an empty table.
func NewNeighborTable() *NeighborTable { return &NeighborTable{} }

// Len returns the number of entries, live or not yet expired-out.
func (t *NeighborTable) Len() int { return t.m.Len() }

// At returns the id and entry in slot i, 0 <= i < Len().
func (t *NeighborTable) At(i int) (netstack.NodeID, *Neighbor) {
	return t.m.KeyAt(i), t.m.At(i)
}

// Get returns the entry for id, or nil.
func (t *NeighborTable) Get(id netstack.NodeID) *Neighbor { return t.m.Get(uint32(id)) }

// Touch records hello receipt from id: the entry is created on first
// contact and its liveness deadline extended to expiry.
func (t *NeighborTable) Touch(id netstack.NodeID, expiry sim.Time) *Neighbor {
	nb, _ := t.m.Put(id)
	nb.Expiry = expiry
	if expiry < t.horizon {
		t.horizon = expiry
	}
	return nb
}

// Remove drops id on link-layer failure evidence; it reports whether an
// entry existed.
func (t *NeighborTable) Remove(id netstack.NodeID) bool { return t.m.Delete(id) }

// Expire ages out neighbors whose hellos stopped and reports whether any
// did. Sweeps before the horizon return immediately: no deadline in the
// table has passed, so a full scan would find nothing.
func (t *NeighborTable) Expire(now sim.Time) bool {
	if now < t.horizon {
		return false
	}
	const forever = sim.Time(1<<63 - 1)
	min := forever
	changed := false
	// Walk down: the entry Delete moves into slot i is one already seen.
	for i := t.m.Len() - 1; i >= 0; i-- {
		if exp := t.m.At(i).Expiry; exp <= now {
			t.m.Delete(t.m.KeyAt(i))
			changed = true
		} else if exp < min {
			min = exp
		}
	}
	t.horizon = min
	return changed
}
