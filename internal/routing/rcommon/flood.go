package rcommon

import (
	"time"

	"slr/internal/netstack"
	"slr/internal/sim"
)

// FloodHold is how long a node retains its sighting of a flood (OLSR's
// duplicate hold time, RFC 3626 §3.4; AODV's PATH_DISCOVERY_TIME; LDR's
// computation state).
const FloodHold = 30 * time.Second

// retained is the retention rule of every flood-carried record: a node's
// sighting made at `at` is dropped at the node's first sweep at or after
// at + hold, so it is still held while the node's last sweep, swept, is
// earlier than that.
func retained(at, swept, hold sim.Time) bool { return at+hold > swept }

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
// until n's first sweep at or after t_n + FloodHold (retained), and a
// copy that arrives after that is new again and starts a new sighting.
// The only per-node state is the instant of the node's last sweep, which
// the node passes to Witness.
//
// Storage is a bit per node id of the network, allocated with the record,
// and one sighting per node that saw the flood.
type Flood struct {
	born      sim.Time
	seen      []uint64   // bit per node id: the node has sighted the flood
	sightings []sighting // each sighter's latest sighting, in first-sighting order
}

type sighting struct {
	node netstack.NodeID
	at   sim.Time
}

// NewFlood returns the record of a flood originated at now in a network
// of n nodes (netstack.Node.NetworkSize).
func NewFlood(now sim.Time, n int) *Flood { return &Flood{born: now, seen: make([]uint64, (n+63)/64)} }

// Witness records node's receipt of a copy of f at now and reports whether
// it is new: the node's first sighting, or one after its previous
// sighting expired. swept is the instant of the node's last sweep, zero
// before its first. A repeat receipt allocates nothing.
func (f *Flood) Witness(node netstack.NodeID, now, swept sim.Time) bool {
	if f == nil {
		panic("rcommon: flooded message carries no Flood record")
	}
	w, bit := int(node>>6), uint64(1)<<(node&63)
	if f.seen[w]&bit == 0 {
		f.seen[w] |= bit
		f.sightings = append(f.sightings, sighting{node: node, at: now})
		return true
	}
	// Every copy descends from the origination, so every sighting is at
	// or after born: none can have expired while born is retained.
	if retained(f.born, swept, FloodHold) {
		return false
	}
	i := 0
	for f.sightings[i].node != node {
		i++
	}
	if s := &f.sightings[i]; !retained(s.at, swept, FloodHold) {
		s.at = now
		return true
	}
	return false
}

// Computation is the record of one route computation — SRP's and LDR's
// per-(source, rreqid) state — carried by its flood: the originator makes
// it with each RREQ, every copy of that RREQ carries the pointer and so
// does every RREP answering it, relays copying messages by value. It
// holds one T per node the flood engaged, under Flood's identity and
// retention rule with the node's own hold: node n's state, made at t_n,
// lasts until n's first sweep at or after t_n + hold, and a copy reaching
// n after that engages it afresh. Like a Flood, the record is garbage once
// its last copy is gone, and a message that carries nil panics.
//
// Unlike a Flood, it is looked up by node id in O(1): a dense index over
// the network's ids, allocated by NewComputation, holds each node's
// position in entries. Only the reactive protocols that keep data per node
// pay for it; duplicate tests alone use Flood. The zero value holds no
// index and is not a usable record.
type Computation[T any] struct {
	index   []int32         // per node id: 0 = never engaged, else entry position + 1
	entries []engagement[T] // each engaged node's latest state, in first-engagement order
}

type engagement[T any] struct {
	at  sim.Time
	val T
}

// NewComputation returns an empty record of a computation in a network of
// n nodes (netstack.Node.NetworkSize).
func NewComputation[T any](n int) *Computation[T] { return &Computation[T]{index: make([]int32, n)} }

// Engage records node's receipt of a copy of c's RREQ at now and returns
// the node's state; fresh reports that the node was passive — never
// engaged, or its state expired — and is engaged now with a zero T.
// swept is the instant of the node's last sweep, zero before its first;
// hold is the node's retention. A repeat receipt allocates nothing. The
// pointer is valid until the next Engage on c.
func (c *Computation[T]) Engage(node netstack.NodeID, now, swept, hold sim.Time) (v *T, fresh bool) {
	if c == nil {
		panic("rcommon: flooded message carries no Computation record")
	}
	if i := c.index[node]; i != 0 {
		e := &c.entries[i-1]
		if retained(e.at, swept, hold) {
			return &e.val, false
		}
		*e = engagement[T]{at: now}
		return &e.val, true
	}
	c.entries = append(c.entries, engagement[T]{at: now})
	c.index[node] = int32(len(c.entries))
	return &c.entries[len(c.entries)-1].val, true
}

// State returns node's retained state, or nil when the node is passive;
// swept and hold are as for Engage. The pointer is valid until the next
// Engage on c.
func (c *Computation[T]) State(node netstack.NodeID, swept, hold sim.Time) *T {
	if c == nil {
		panic("rcommon: flooded message carries no Computation record")
	}
	if i := c.index[node]; i != 0 && retained(c.entries[i-1].at, swept, hold) {
		return &c.entries[i-1].val
	}
	return nil
}
