// Package netstack is the network layer of the simulated node: it binds a
// routing protocol to the MAC, carries data packets hop by hop, dispatches
// control messages, and feeds the metrics collector.
//
// The routing protocol owns every forwarding decision; the stack provides
// transmit primitives and timers, and is the one place a data packet's
// arrival and drops are accounted: it delivers the packets addressed to
// its node, expires the ones out of TTL, and hands the protocol only the
// packets it must relay. SRP and the four baseline protocols plug in
// behind one interface.
package netstack

import (
	"math/rand"
	"slices"

	"slr/internal/mac"
	"slr/internal/metrics"
	"slr/internal/radio"
	"slr/internal/sim"
)

// NodeID identifies a node; it is the radio station id.
type NodeID = radio.NodeID

// Broadcast is the broadcast address.
const Broadcast = radio.Broadcast

// DefaultTTL is the initial TTL of data packets.
const DefaultTTL = 64

// DataPacket is an application (CBR) packet traveling the network.
type DataPacket struct {
	UID uint64
	// Flow is the traffic generator's flow id (1-based); 0 means the
	// packet was injected outside the workload (tests, examples). The
	// metrics collector keys its per-flow ledger on it.
	Flow    uint32
	Src     NodeID
	Dst     NodeID
	Size    int // payload bytes (512 in the paper's workload)
	TTL     int
	Hops    int
	Created sim.Time

	// Route and RouteIdx carry a DSR-style source route when the routing
	// protocol uses one; other protocols leave them empty.
	Route    []NodeID
	RouteIdx int
	// Salvaged counts DSR salvage operations on this packet.
	Salvaged int
}

// DropReason is why a data packet was dropped above the MAC. Node.DropData
// takes only these, so a new reason is a new constant here; its String
// keys metrics.Collector.DataDrops, scenario.Result.DropReasons and the
// JSONL drop_reasons.
type DropReason uint8

// The drop vocabulary, sorted by spelling.
const (
	// DropTimeout: route discovery gave up after its last retry.
	DropTimeout DropReason = iota
	// DropLinkLost: the MAC exhausted retries toward the next hop and the
	// protocol could not (or may not) salvage the packet.
	DropLinkLost
	// DropNoRoute: no live route and no discovery to queue behind.
	DropNoRoute
	// DropQueueFull: the per-destination discovery queue was full.
	DropQueueFull
	// DropTTL: the packet's hop budget ran out.
	DropTTL
)

var dropNames = [...]string{
	DropTimeout:   "discovery-timeout",
	DropLinkLost:  "link-lost",
	DropNoRoute:   "no-route",
	DropQueueFull: "queue-full",
	DropTTL:       "ttl-expired",
}

// String returns the reason's spelling in the run's outputs.
func (r DropReason) String() string { return dropNames[r] }

// KnownDropReason reports whether s is the spelling of a DropReason.
func KnownDropReason(s string) bool { return slices.Contains(dropNames[:], s) }

// Protocol is a routing protocol instance bound to one node.
type Protocol interface {
	// Attach binds the protocol to its node. Called once, before Start.
	Attach(n *Node)
	// Start begins protocol operation (periodic timers etc.).
	Start()
	// OriginateData is invoked when the local application sends pkt.
	OriginateData(pkt *DataPacket)
	// RecvData handles a packet to relay, received from neighbor `from`.
	// The stack has already counted the hop and spent one TTL; packets
	// for this node and packets out of TTL never reach the protocol.
	RecvData(from NodeID, pkt *DataPacket)
	// RecvControl handles a control message received from neighbor
	// `from`. Messages are protocol-defined types.
	RecvControl(from NodeID, msg any)
	// DataFailed reports a data packet the MAC could not deliver to the
	// next hop `to` (retry limit reached) — the link-layer loss
	// detection signal of §V.
	DataFailed(to NodeID, pkt *DataPacket)
	// DataAcked reports a data packet acknowledged by next hop `to`.
	DataAcked(to NodeID, pkt *DataPacket)
	// ControlFailed reports a unicast control message that could not be
	// delivered to `to`.
	ControlFailed(to NodeID, msg any)
}

// controlEnvelope wraps a control message on the air so the stack can
// distinguish it from data and account for its size. Envelopes are pooled
// per node (see newEnvelope): one is recycled when its unicast completes
// (SendOK/SendFailed) or its broadcast leaves the air (BroadcastDone), so
// steady-state hello/update traffic stops allocating a box per send. A box
// may be taken ahead of its send: BroadcastControlAfter holds it on the
// clock until the broadcast starts.
type controlEnvelope struct {
	size int
	msg  any
	// send broadcasts this box as BroadcastControl would. It is built once,
	// when the box is first allocated, and lives as long as the box, so a
	// delayed broadcast schedules it without allocating a closure.
	send func()
}

// Node is one simulated host: MAC below, routing protocol above.
type Node struct {
	id    NodeID
	size  int // the network's node count: ids are 0…size-1
	sim   *sim.Simulator
	mac   *mac.MAC
	proto Protocol
	mx    *metrics.Collector
	// delivered dedups data packet UIDs that reached this destination
	// (e.g. a retransmitted copy that raced an ACK). UIDs themselves are
	// allocated by the originating side — the traffic generator for
	// workload packets, test harnesses for injected ones — never by the
	// Node. It is made at the first delivery, so a node no flow ends at
	// holds none.
	delivered map[uint64]struct{}
	// envFree pools controlEnvelope boxes for reuse across control sends.
	envFree []*controlEnvelope
}

// newNode wires node id of a size-node network and attaches its protocol;
// NewNetwork registers it on the channel and StartAll starts it.
func newNode(s *sim.Simulator, ch *radio.Channel, id NodeID, size int, proto Protocol, mx *metrics.Collector) *Node {
	n := &Node{
		id:    id,
		size:  size,
		sim:   s,
		proto: proto,
		mx:    mx,
	}
	n.mac = mac.New(s, ch, id, (*macUpper)(n))
	proto.Attach(n)
	return n
}

// Mac exposes the MAC for channel registration and stats collection.
func (n *Node) Mac() *mac.MAC { return n.mac }

// Start starts the routing protocol.
func (n *Node) Start() { n.proto.Start() }

// Protocol returns the attached routing protocol.
func (n *Node) Protocol() Protocol { return n.proto }

// ID returns the node id.
func (n *Node) ID() NodeID { return n.id }

// NetworkSize returns the node count of the node's network: ids are 0…
// NetworkSize()-1, so a table indexed by id is allocated once at it.
func (n *Node) NetworkSize() int { return n.size }

// Now returns the current virtual time.
func (n *Node) Now() sim.Time { return n.sim.Now() }

// Rand returns the simulation RNG.
func (n *Node) Rand() *rand.Rand { return n.sim.Rand() }

// After schedules fn on the simulation clock.
func (n *Node) After(d sim.Time, fn func()) sim.Timer { return n.sim.After(d, fn) }

// RescheduleAfter re-arms t to fire fn d from now, reusing its queue node
// when t is still pending.
func (n *Node) RescheduleAfter(t sim.Timer, d sim.Time, fn func()) sim.Timer {
	return n.sim.RescheduleAfter(t, d, fn)
}

// Cancel cancels a scheduled event; stale and zero timers are ignored.
func (n *Node) Cancel(t sim.Timer) { n.sim.Cancel(t) }

// SendData hands an application packet to the routing protocol.
func (n *Node) SendData(pkt *DataPacket) {
	n.mx.Sent(pkt.Flow)
	n.proto.OriginateData(pkt)
}

// ForwardData transmits pkt to neighbor `to` over the MAC with ARQ. The
// protocol hears back via DataAcked or DataFailed.
func (n *Node) ForwardData(to NodeID, pkt *DataPacket) {
	n.mac.Send(to, pkt.Size+dataHeaderSize, pkt)
}

// dataHeaderSize approximates the IP-style network header on data packets.
const dataHeaderSize = 20

// newEnvelope takes a pooled envelope or allocates one, with its send
// closure bound to n. The box belongs to the caller until it is handed to
// the MAC, now or (BroadcastControlAfter) later.
func (n *Node) newEnvelope(size int, msg any) *controlEnvelope {
	if k := len(n.envFree); k > 0 {
		e := n.envFree[k-1]
		n.envFree[k-1] = nil
		n.envFree = n.envFree[:k-1]
		e.size, e.msg = size, msg
		return e
	}
	e := &controlEnvelope{size: size, msg: msg}
	e.send = func() { n.broadcast(e) }
	return e
}

// freeEnvelope recycles an envelope whose send completed. The wrapped
// message is not pooled: receivers may hold it past delivery (e.g. a
// forwarded RREP), only the box is dead. The box keeps its send closure
// for its next use.
func (n *Node) freeEnvelope(e *controlEnvelope) {
	e.msg = nil
	n.envFree = append(n.envFree, e)
}

// BroadcastControl transmits a control message to all neighbors. Control
// packets jump the data queue, as in the ns-2/GloMoSim priority interface
// queue used by the paper's evaluation.
func (n *Node) BroadcastControl(size int, msg any) {
	n.broadcast(n.newEnvelope(size, msg))
}

// BroadcastControlAfter broadcasts a control message d from now, as
// BroadcastControl would at that instant: the jittered relay of a flood.
// It schedules one kernel event, like After, and allocates nothing once
// the envelope pool is warm. msg must not change before the send.
func (n *Node) BroadcastControlAfter(d sim.Time, size int, msg any) {
	n.sim.After(d, n.newEnvelope(size, msg).send)
}

func (n *Node) broadcast(e *controlEnvelope) {
	n.mx.Control(e.size)
	n.mac.BroadcastPriority(e.size, e)
}

// UnicastControl transmits a control message to one neighbor with ARQ and
// priority over data.
func (n *Node) UnicastControl(to NodeID, size int, msg any) {
	n.mx.Control(size)
	n.mac.SendPriority(to, size, n.newEnvelope(size, msg))
}

// recvData handles a data packet arriving from neighbor `from`: it counts
// the hop, delivers a packet addressed to this node (a duplicate UID, e.g.
// a retransmitted copy that raced an ACK, counts once), drops one whose
// TTL runs out, and hands the rest to the protocol to relay.
func (n *Node) recvData(from NodeID, pkt *DataPacket) {
	pkt.Hops++
	if pkt.Dst == n.id {
		if _, dup := n.delivered[pkt.UID]; dup {
			return
		}
		if n.delivered == nil {
			n.delivered = make(map[uint64]struct{})
		}
		n.delivered[pkt.UID] = struct{}{}
		now := n.sim.Now()
		n.mx.Delivered(pkt.Flow, now, now-pkt.Created, pkt.Hops)
		return
	}
	pkt.TTL--
	if pkt.TTL <= 0 {
		n.DropData(pkt, DropTTL)
		return
	}
	n.proto.RecvData(from, pkt)
}

// DropData records a drop of pkt above the MAC.
func (n *Node) DropData(pkt *DataPacket, reason DropReason) {
	n.mx.Drop(reason.String())
}

// macUpper adapts Node to the mac.UpperLayer interface without exposing
// those methods on Node's public API.
type macUpper Node

var _ mac.UpperLayer = (*macUpper)(nil)

func (u *macUpper) Deliver(from radio.NodeID, payload any) {
	n := (*Node)(u)
	switch p := payload.(type) {
	case *DataPacket:
		n.recvData(from, p)
	case *controlEnvelope:
		n.proto.RecvControl(from, p.msg)
	}
}

func (u *macUpper) SendFailed(to radio.NodeID, payload any) {
	n := (*Node)(u)
	switch p := payload.(type) {
	case *DataPacket:
		n.proto.DataFailed(to, p)
	case *controlEnvelope:
		n.proto.ControlFailed(to, p.msg)
		n.freeEnvelope(p)
	}
}

func (u *macUpper) SendOK(to radio.NodeID, payload any) {
	n := (*Node)(u)
	switch p := payload.(type) {
	case *DataPacket:
		n.proto.DataAcked(to, p)
	case *controlEnvelope:
		// Control deliveries need no confirmation; the box is done.
		n.freeEnvelope(p)
	}
}

// BroadcastDone implements mac.BroadcastDone: a broadcast control frame
// has left the air and every reception of it has completed, so its
// envelope can be recycled.
func (u *macUpper) BroadcastDone(payload any) {
	if e, ok := payload.(*controlEnvelope); ok {
		(*Node)(u).freeEnvelope(e)
	}
}

// BaseProtocol provides no-op implementations of the optional Protocol
// callbacks so protocols only implement what they use.
type BaseProtocol struct{}

// DataAcked is a no-op.
func (BaseProtocol) DataAcked(NodeID, *DataPacket) {}

// ControlFailed is a no-op.
func (BaseProtocol) ControlFailed(NodeID, any) {}
