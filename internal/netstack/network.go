package netstack

import (
	"fmt"

	"slr/internal/loopcheck"
	"slr/internal/metrics"
	"slr/internal/mobility"
	"slr/internal/radio"
	"slr/internal/sim"
)

// Network is a simulated network: one channel, one metrics collector and
// one node per mobility model. NewNetwork is the one way nodes are wired:
// scenario trials, protocol test worlds and the examples all build
// through it.
type Network struct {
	Sim   *sim.Simulator
	Ch    *radio.Channel
	MX    *metrics.Collector
	Nodes []*Node
}

// NewNetwork builds a channel on s with rp and, for each i, node i running
// proto(i), registered on the channel at models[i]. rp.MaxSpeed must bound
// every model's speed. The protocols are attached but not started; call
// StartAll.
func NewNetwork(s *sim.Simulator, rp radio.Params, models []mobility.Model, proto func(NodeID) Protocol) *Network {
	ch := radio.NewChannel(s, rp)
	mx := metrics.NewCollector()
	nodes := make([]*Node, len(models))
	for i, m := range models {
		id := NodeID(i)
		nodes[i] = newNode(s, ch, id, proto(id), mx)
		ch.Register(id, m, nodes[i].mac)
	}
	return &Network{Sim: s, Ch: ch, MX: mx, Nodes: nodes}
}

// StartAll starts every node's protocol, in id order.
func (w *Network) StartAll() {
	for _, n := range w.Nodes {
		n.Start()
	}
}

// successorLister is implemented by protocols that expose their successor
// sets for invariant checking.
type successorLister interface {
	SuccessorsOf(dst NodeID) []NodeID
}

// CheckLoopFree verifies that, for every destination, the union of all
// nodes' successor sets is acyclic: the paper's loop-freedom at every
// instant (Theorem 3). A node whose protocol exposes no successor sets
// contributes no edges. The error names the destination and the cycle.
func (w *Network) CheckLoopFree() error {
	for dst := range w.Nodes {
		adj := make(map[int][]int)
		for i, n := range w.Nodes {
			sl, ok := n.proto.(successorLister)
			if !ok {
				continue
			}
			for _, s := range sl.SuccessorsOf(NodeID(dst)) {
				adj[i] = append(adj[i], int(s))
			}
		}
		if cyc := loopcheck.FindCycle(adj); cyc != nil {
			return fmt.Errorf("destination %d: successor cycle %v", dst, cyc)
		}
	}
	return nil
}
