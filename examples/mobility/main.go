// Mobility runs the paper's headline comparison on a small mobile network:
// SRP versus AODV on identical topology and traffic (same seed), at
// constant mobility and at no mobility. It prints the three metrics of
// Table I — delivery ratio, network load, latency — plus the Fig. 7
// sequence-number contrast: AODV must keep incrementing destination
// sequence numbers to stay loop-free, while SRP repairs routes by splitting
// fraction labels and never touches its sequence number.
//
// Run with: go run ./examples/mobility
package main

import (
	"fmt"
	"log"

	"slr/internal/scenario"
	"slr/internal/spec"
)

func main() {
	fmt.Println("SRP vs AODV, 40 nodes, 12 CBR flows, 180 simulated seconds")
	fmt.Println()

	// The paper's setup, shrunk.
	s := spec.PaperDefault()
	s.Nodes = 40
	s.Terrain = spec.Terrain{WidthM: 1400, HeightM: 400}
	s.DurationSeconds = 180
	s.Traffic.Flows = 12
	s.Seed = 42
	for _, mob := range []struct {
		name  string
		pause float64 // seconds
	}{
		{"constant mobility (pause 0s, 0-20 m/s)", 0},
		{"no mobility (pause = full run)", 180},
	} {
		fmt.Println(mob.name)
		s.Mobility.PauseSeconds = mob.pause
		for _, proto := range []scenario.ProtocolName{scenario.SRP, scenario.AODV} {
			s.Protocol = string(proto)
			s.CheckInvariants = proto == scenario.SRP
			p, err := s.Params()
			if err != nil {
				log.Fatal(err)
			}
			r := scenario.Run(p)
			fmt.Printf("  %-5s delivery %.3f   net load %.3f   latency %.3f s   avg seqno %.1f\n",
				proto, r.DeliveryRatio, r.NetworkLoad, r.Latency, r.AvgSeqno)
			if proto == scenario.SRP {
				if len(r.LoopErrors) > 0 {
					fmt.Printf("  SRP loop-freedom VIOLATED: %v\n", r.LoopErrors)
				} else {
					fmt.Printf("        (loop-freedom verified at %d checkpoints, max fraction denominator %d)\n",
						r.LoopChecks, r.MaxDenom)
				}
			}
		}
		fmt.Println()
	}
	fmt.Println("expected shape (paper §V): SRP delivers at least as much as AODV with")
	fmt.Println("a fraction of the control load, and its sequence numbers stay at zero.")
}
