package netstack

import (
	"testing"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/radio"
	"slr/internal/sim"
)

// succProto is a fake protocol with fixed successor sets for one
// destination.
type succProto struct {
	hopProto
	succ map[NodeID][]NodeID // dst -> successors
}

func (p *succProto) SuccessorsOf(dst NodeID) []NodeID { return p.succ[dst] }

// succNetwork builds an unstarted network, node i at (10·i, i), whose node
// i lists succ[i] as its successors for destination 1; a nil entry gives
// node i a protocol with no SuccessorsOf at all.
func succNetwork(succ ...[]NodeID) *Network {
	models := make([]mobility.Model, len(succ))
	for i := range models {
		models[i] = &mobility.Static{At: geo.Point{X: 10 * float64(i), Y: float64(i)}}
	}
	return NewNetwork(sim.New(1), radio.DefaultParams(), models, func(id NodeID) Protocol {
		if succ[id] == nil {
			return &hopProto{}
		}
		return &succProto{succ: map[NodeID][]NodeID{1: succ[id]}}
	})
}

func TestCheckLoopFree(t *testing.T) {
	none := []NodeID{}
	w := succNetwork(none, none, []NodeID{3}, []NodeID{2})
	for i, n := range w.Nodes {
		want := geo.Point{X: 10 * float64(i), Y: float64(i)}
		if got := w.Ch.Position(n.ID()); n.ID() != NodeID(i) || got != want {
			t.Errorf("Nodes[%d] is node %d at %v, want node %d at models[%d]'s %v", i, n.ID(), got, i, i, want)
		}
		if n.NetworkSize() != len(w.Nodes) {
			t.Errorf("node %d: NetworkSize %d, want the network's %d nodes", i, n.NetworkSize(), len(w.Nodes))
		}
		if n.Protocol().(*succProto).started {
			t.Errorf("node %d started by NewNetwork", i)
		}
	}

	for _, tc := range []struct {
		name string
		succ [][]NodeID
		want string
	}{
		{"cycle", [][]NodeID{none, none, {3}, {2}}, "destination 1: successor cycle [2 3 2]"},
		{"acyclic", [][]NodeID{{2, 3}, none, {1}, {2}}, ""},
		// Node 0 has no SuccessorsOf: it is skipped, and the check goes
		// on to the nodes after it.
		{"no lister", [][]NodeID{nil, none, {3}, {2}}, "destination 1: successor cycle [2 3 2]"},
	} {
		got := ""
		if err := succNetwork(tc.succ...).CheckLoopFree(); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%s: CheckLoopFree = %q, want %q", tc.name, got, tc.want)
		}
	}
}
