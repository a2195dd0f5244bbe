// Package rcommon is the shared control-plane toolkit of the routing
// protocols: the machinery that every on-demand or proactive MANET
// protocol reimplements around its actual routing logic. It owns
//
//   - the route-discovery bookkeeping — pending queues, retry counting,
//     and post-failure hold-down — and the one protocol_params path every
//     protocol's config takes, with the route constants AODV, LDR and SRP
//     share (discovery.go),
//   - sliding-window rate limiters for RREQ/RERR origination (ratelimit.go),
//   - the periodic beaconer driving HELLO/TC/sweep schedules on re-armed
//     sim timers (beacon.go),
//   - flood-carried state: a record created with each flood and carried by
//     all its copies — and, for a route computation, by its replies — so a
//     node's duplicate test is a bit test on the flood (Flood), SRP's and
//     LDR's per-computation state is found by node id in the computation's
//     record (Computation), and no node keeps a table of the floods it
//     heard (flood.go),
//   - sequence-number wraparound comparisons (seqno.go),
//   - and IDTable, the flat table protocol state keyed by a node id lives
//     in (idtable.go).
//
// Node ids are dense 0…N-1, so per-destination state is an indexing
// problem, not a hashing one. Which index depends on the key set a table
// holds by the protocol's design. A table whose keys are the whole network
// (OLSR's topology and routes: every originator's TC reaches every node)
// is a slice indexed by node id, zero meaning no entry, allocated at the
// network size (netstack.Node.NetworkSize) on its first write: a lookup
// reads one entry. A flood record's per-id arrays are allocated with it
// at that size too (NewFlood, NewComputation). A table keyed by a
// neighborhood or by the active flows is an IDTable: 5000 nodes with a
// slot per destination would be 25 M slots for tables that hold dozens.
// IDTable keeps values by value in a slab sized to what a node has
// actually heard of, behind a small index of 4-byte slots; there is no
// heap object per entry, and a pointer into the slab is good only until
// the table's next Put or Delete.
//
// A trial resolves its protocol once and its nodes share the config:
// Configure runs once per trial (routing.Resolve), every node's instance
// and its DiscoveryTable point at that one config, and nothing writes it
// after Configure. A node allocates no state it may never use: a
// DiscoveryTable lives by value in its protocol and makes its maps on
// their first write.
//
// Every helper is a pure extraction: porting a protocol onto rcommon must
// not change its packet trace. Helpers therefore never draw randomness
// themselves — jitter stays in protocol callbacks so each protocol's RNG
// draw order is exactly what it was before the extraction — and they
// schedule timers at the same points in the event sequence the inlined
// code did.
package rcommon

// MinReplyHops is how many hops an SRP or LDR route request travels before
// an intermediate node may answer it (§V: "RREQ packets need to travel
// several hops before allowing a node to reply").
const MinReplyHops = 2
