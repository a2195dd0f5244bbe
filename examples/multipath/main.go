// Multipath demonstrates that SRP is inherently multi-path (§III): because
// the label set keeps all successors in topological order, a node may keep
// *every* feasible in-order neighbor as a successor, not just one.
//
// A 4x4 grid of static nodes runs SRP; six nodes near the opposite corner
// request routes to node 15, one second apart. Afterwards the program
// prints each node's successor set for destination 15 and verifies that
// the union of all successor sets is a DAG — multiple forwarding choices,
// zero loops. It exits non-zero if no node holds more than one successor.
//
// Run with: go run ./examples/multipath
package main

import (
	"fmt"
	"log"
	"time"

	"slr/internal/core"
	"slr/internal/geo"
	"slr/internal/label"
	"slr/internal/mobility"
	"slr/internal/netstack"
	"slr/internal/radio"
	"slr/internal/routing/srp"
	"slr/internal/sim"
)

func main() {
	log.SetFlags(0)

	const (
		rows = 4
		cols = 4
		gap  = 100.0
		dest = 15
	)

	rp := radio.DefaultParams()
	rp.Range = 120 // connect only grid neighbors (and not diagonals)
	grid := make([]mobility.Model, rows*cols)
	for i := range grid {
		grid[i] = &mobility.Static{At: geo.Point{X: float64(i%cols) * gap, Y: float64(i/cols) * gap}}
	}
	protos := make([]*srp.Protocol, rows*cols)
	cfg := srp.DefaultConfig() // one config, shared by every node
	net := netstack.NewNetwork(sim.New(7), rp, grid, func(id netstack.NodeID) netstack.Protocol {
		protos[id] = srp.New(&cfg)
		return protos[id]
	})
	net.StartAll()
	s, nodes := net.Sim, net.Nodes

	// Several sources keep flows toward the far corner alive;
	// overlapping route computations give interior nodes multiple
	// feasible successors, all kept in label order.
	uid := uint64(0)
	for i, src := range []int{0, 1, 4, 2, 8, 5} {
		src := src
		for tick := 0; tick < 20; tick++ {
			at := sim.Time(i)*time.Second + sim.Time(tick)*500*time.Millisecond
			s.At(at, func() {
				uid++
				nodes[src].SendData(&netstack.DataPacket{
					UID: uid, Src: netstack.NodeID(src), Dst: dest,
					Size: 512, TTL: netstack.DefaultTTL, Created: s.Now(),
				})
			})
		}
	}
	s.RunUntil(14 * time.Second)

	fmt.Printf("4x4 grid, destination %d (far corner). Successor sets:\n\n", dest)
	multi := 0
	for id, p := range protos {
		succ := p.SuccessorsOf(dest)
		if len(succ) == 0 {
			continue
		}
		if len(succ) > 1 {
			multi++
		}
		o := p.Orders()[dest]
		fmt.Printf("  node %2d  label %-12s successors %v\n", id, o, succ)
	}
	fmt.Printf("\n%d nodes hold more than one successor for the destination.\n", multi)
	if multi == 0 {
		log.Fatal("no node holds more than one successor: the grid was routed single-path")
	}

	// Verify the invariant the labels guarantee: load every ordering and
	// successor edge into core's checker, which refuses an edge whose
	// successor's label is not below its own and then searches the
	// union of the edges for a cycle.
	g := core.NewGraph[label.Order](core.OrderSet{})
	for id, p := range protos {
		if o, ok := p.Orders()[dest]; ok {
			if err := g.SetLabel(id, o); err != nil {
				log.Fatal(err)
			}
		}
	}
	for id, p := range protos {
		for _, nxt := range p.SuccessorsOf(dest) {
			if err := g.AddSuccessor(id, int(nxt)); err != nil {
				log.Fatalf("order violated: %v", err)
			}
		}
	}
	if err := g.Verify(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("every successor edge satisfies the ordering criteria: the multipath")
	fmt.Println("successor graph is in topological order and therefore loop-free.")
}
