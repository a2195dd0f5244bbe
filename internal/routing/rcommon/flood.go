package rcommon

import (
	"time"

	"slr/internal/netstack"
	"slr/internal/sim"
)

// floodHold is how long a node retains its sighting of a flood (OLSR's
// duplicate hold time, RFC 3626 §3.4; AODV's PATH_DISCOVERY_TIME).
const floodHold = 30 * time.Second

// Flood is the duplicate record of one flooded control message: one TC,
// one RREQ. The originator creates it with NewFlood and every copy of the
// message carries the same pointer, relays copying the message by value,
// so a receiver's duplicate test is a bit test on a record that the
// flood's other receivers touched moments before. A message that should
// carry a record and carries nil is a wiring bug, and Witness panics.
//
// Identity: one record stands for one (originator, id) pair. This holds
// because a protocol creates a record at every origination and never
// reuses an id within a trial (tcSeq++, rreqID++ at each origination).
// The record is garbage once its last copy is gone; no node can see the
// flood after that, so nothing is forgotten that a per-node duplicate
// set would have remembered.
//
// Semantics are exactly those of a per-node duplicate set swept from the
// node's periodic housekeeping: node n's sighting at t_n is retained
// until n's first sweep at or after t_n + floodHold, and a copy that
// arrives after that is new again and starts a new sighting. The only
// per-node state is the instant of the node's last sweep, which the node
// passes to Witness.
//
// Storage grows with the nodes the flood reaches: a bit per node id up to
// the highest one reached, and one sighting per node that saw the flood.
type Flood struct {
	born      sim.Time
	seen      []uint64   // bit per node id: the node has sighted the flood
	sightings []sighting // each sighter's latest sighting, in first-sighting order
}

type sighting struct {
	node netstack.NodeID
	at   sim.Time
}

// NewFlood returns the record of a flood originated at now.
func NewFlood(now sim.Time) *Flood { return &Flood{born: now} }

// Witness records node's receipt of a copy of f at now and reports whether
// it is new: the node's first sighting, or one after its previous
// sighting expired. swept is the instant of the node's last sweep, zero
// before its first. A repeat receipt allocates nothing.
func (f *Flood) Witness(node netstack.NodeID, now, swept sim.Time) bool {
	if f == nil {
		panic("rcommon: flooded message carries no Flood record")
	}
	w, bit := int(node>>6), uint64(1)<<(node&63)
	if w >= len(f.seen) {
		f.seen = append(f.seen, make([]uint64, w+1-len(f.seen))...)
	}
	if f.seen[w]&bit == 0 {
		f.seen[w] |= bit
		f.sightings = append(f.sightings, sighting{node: node, at: now})
		return true
	}
	// Every copy descends from the origination, so every sighting is at
	// or after born: none can have expired while born + floodHold is
	// later than the node's last sweep.
	if f.born+floodHold > swept {
		return false
	}
	i := 0
	for f.sightings[i].node != node {
		i++
	}
	if s := &f.sightings[i]; s.at+floodHold <= swept {
		s.at = now
		return true
	}
	return false
}
