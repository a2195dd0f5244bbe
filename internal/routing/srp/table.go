package srp

import (
	"math"
	"math/rand"

	"slr/internal/label"
	"slr/internal/netstack"
	"slr/internal/sim"
)

// PathPolicy selects among feasible successors when forwarding. The paper
// leaves multipath selection open ("Node A is free to use any successor
// contained in the successor table", §III); these are the provided
// policies.
type PathPolicy int

const (
	// PolicyMinHop forwards via the minimum measured distance successor
	// (the paper's "simple implementation ... single successor chosen
	// from the min-hop set").
	PolicyMinHop PathPolicy = iota
	// PolicyRoundRobin rotates across feasible successors, spreading
	// load over the multipath DAG.
	PolicyRoundRobin
	// PolicyRandom picks a uniform random feasible successor.
	PolicyRandom
)

// successor is one entry of the successor set S^A_T: a next hop with the
// ordering it advertised and its measured distance. Every route carries a
// handful, so on large networks successors are most of SRP's memory: the
// id and distance are 32 bits each, which makes the entry 32 bytes. Node
// ids are dense and below 2^31 (spec.ValidateParams bounds the node
// count), and a distance counts hops, so it stays far below 2^31 too.
type successor struct {
	order  label.Order
	expiry sim.Time
	id     int32
	dist   int32
}

// route is the per-destination state at a node: its own ordering O^A_T
// (Definition 3; it must be kept for at least DELETE_PERIOD after the route
// becomes invalid), the successor set, and the measured distance. Routes
// live by value in Protocol.routes, and only setRoute adds one. The
// distance is 32 bits for the reason successor's is, so a route is 56
// bytes and its routes-table entry, key included, 64: one cache line.
type route struct {
	// order is always finite: setRoute adds a route only with the finite
	// ordering it computed, and only ever replaces it with another.
	order label.Order
	// succ is unordered and holds at most one entry per next hop. A route
	// has a handful of successors, so membership is a linear scan.
	succ []successor
	// orderExpiry is when an invalid route's ordering may be forgotten.
	orderExpiry sim.Time
	dist        int32
	// rrIndex cycles PolicyRoundRobin through the successor set.
	rrIndex uint32
}

// ordering returns r's ordering, Unassigned for a nil route (none).
func (r *route) ordering() label.Order {
	if r == nil {
		return label.Unassigned
	}
	return r.order
}

// index returns the position in succ of next hop n, or -1.
func (r *route) index(n netstack.NodeID) int {
	for i := range r.succ {
		if netstack.NodeID(r.succ[i].id) == n {
			return i
		}
	}
	return -1
}

// find returns the successor entry for next hop n, or nil. The pointer is
// valid until succ next changes.
func (r *route) find(n netstack.NodeID) *successor {
	if i := r.index(n); i >= 0 {
		return &r.succ[i]
	}
	return nil
}

// remove deletes succ[i] by moving the last entry into its place, so a
// loop that removes while it walks must walk from the last entry down.
func (r *route) remove(i int) {
	last := len(r.succ) - 1
	r.succ[i] = r.succ[last]
	r.succ = r.succ[:last]
}

// active reports whether the route has at least one live successor
// (Definition 2). It prunes every expired successor, not just those seen
// before the first live one: linkBreak and handleRERR make membership
// checks against succ, so the set's content after a call must be a
// function of event history alone — as the order of succ is, which only
// setRoute's appends and remove's swaps decide.
func (r *route) active(now sim.Time) bool {
	live := false
	for i := len(r.succ) - 1; i >= 0; i-- {
		if r.succ[i].expiry > now {
			live = true
			continue
		}
		r.remove(i)
	}
	return live
}

// best returns the live successor with minimum measured distance (the
// "min-hop set" uni-path rule of §III) and false if none.
func (r *route) best(now sim.Time) (netstack.NodeID, bool) {
	bestID := netstack.NodeID(-1)
	bestDist := int32(math.MaxInt32)
	found := false
	for i := len(r.succ) - 1; i >= 0; i-- {
		s := &r.succ[i]
		if s.expiry <= now {
			r.remove(i)
			continue
		}
		id := netstack.NodeID(s.id)
		if !found || s.dist < bestDist || (s.dist == bestDist && id < bestID) {
			bestID, bestDist, found = id, s.dist, true
		}
	}
	return bestID, found
}

// pick returns a successor per the policy; ok is false when none is live,
// and for a nil route (no route to the destination).
func (r *route) pick(policy PathPolicy, rng *rand.Rand, now sim.Time) (netstack.NodeID, bool) {
	if r == nil {
		return 0, false
	}
	switch policy {
	case PolicyRoundRobin:
		live := r.successors(now)
		if len(live) == 0 {
			return 0, false
		}
		r.rrIndex++
		return live[int(r.rrIndex)%len(live)], true
	case PolicyRandom:
		live := r.successors(now)
		if len(live) == 0 {
			return 0, false
		}
		return live[rng.Intn(len(live))], true
	default:
		return r.best(now)
	}
}

func sortNodeIDs(ids []netstack.NodeID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// successors returns the ids of live successors, sorted so callers that
// index into the list (round-robin and random picks, the multipath
// example) never see the order of succ.
func (r *route) successors(now sim.Time) []netstack.NodeID {
	var out []netstack.NodeID
	for i := range r.succ {
		if r.succ[i].expiry > now {
			out = append(out, netstack.NodeID(r.succ[i].id))
		}
	}
	sortNodeIDs(out)
	return out
}

// dropSuccessor removes next hop n; it reports whether the route is now
// invalid.
func (r *route) dropSuccessor(n netstack.NodeID, now sim.Time) bool {
	if i := r.index(n); i >= 0 {
		r.remove(i)
	}
	return !r.active(now)
}

// pruneOutOfOrder implements Algorithm 1 line 13: eliminate any successor i
// whose stored ordering is not preceded by g. It returns the number pruned.
func (r *route) pruneOutOfOrder(g label.Order) int {
	pruned := 0
	for i := len(r.succ) - 1; i >= 0; i-- {
		if !g.Precedes(r.succ[i].order) {
			r.remove(i)
			pruned++
		}
	}
	return pruned
}

// rreqState is a node's share of one route computation (§III): passive
// nodes have none; an engaged node caches the solicitation ordering C (the
// M of SLR) and the last hop for the reverse path. States live in the
// computation's own record (rcommon.Computation), which the RREQ and its
// RREPs carry, so a node keeps no table of them; a flood leaves one at
// nearly every node, so lastHop is 32 bits (a node id, as in successor):
// 24 bytes, 32 with the record's sighting instant.
type rreqState struct {
	cached  label.Order // C^A_?: ordering of the relayed solicitation
	lastHop int32
	replied bool // at most one reply forwarded per computation
}
