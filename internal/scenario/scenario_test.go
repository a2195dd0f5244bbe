package scenario

import (
	"slices"
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/traffic"
)

// smallParams returns a scaled-down scenario (25 nodes, 60 s, 8 flows)
// that keeps test time reasonable while exercising the full stack.
func smallParams(proto ProtocolName, pause time.Duration, seed int64) Params {
	return Params{
		Protocol: proto,
		Nodes:    25,
		Terrain:  geo.Terrain{Width: 1100, Height: 300},
		Range:    275,
		Duration: 60 * time.Second,
		Seed:     seed,
		Traffic:  traffic.Params{Flows: 8, PacketSize: 512, Rate: 4, MeanLife: 30 * time.Second},
		Mobility: mobility.Spec{Model: "waypoint", MaxSpeed: 20, Pause: pause},
	}
}

func TestAllProtocolsDeliverTraffic(t *testing.T) {
	for _, proto := range AllProtocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			t.Parallel()
			r := Run(smallParams(proto, 0, 7))
			if r.DataSent == 0 {
				t.Fatal("no traffic generated")
			}
			if r.DeliveryRatio < 0.3 {
				t.Fatalf("delivery ratio %.2f implausibly low (sent %d, recv %d)",
					r.DeliveryRatio, r.DataSent, r.DataRecv)
			}
			if proto != OLSR && r.ControlTx == 0 {
				t.Fatal("no control packets")
			}
			if r.Latency <= 0 || r.Latency > 30 {
				t.Fatalf("latency %.3f s implausible", r.Latency)
			}
		})
	}
}

func TestLoopFreedomInvariantHolds(t *testing.T) {
	// SRP and LDR must never show a successor cycle; run with the
	// continuous checker on, at constant mobility (hardest case).
	for _, proto := range []ProtocolName{SRP, LDR, AODV} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			t.Parallel()
			p := smallParams(proto, 0, 11)
			p.CheckInvariants = true
			r := Run(p)
			if r.LoopChecks == 0 {
				t.Fatal("checker never ran")
			}
			if len(r.LoopErrors) > 0 {
				t.Fatalf("loop-freedom violated: %v", r.LoopErrors)
			}
		})
	}
}

// TestSameSeedSameTopologyAcrossProtocols: the same seed must generate
// identical workloads for every protocol (the paper fixes mobility/traffic
// scripts per trial), so results from one seed pair up across protocols.
// What the pairing rests on is the per-flow ledger: the same flows, each
// sending the same packets, under all five protocols, with the nodes in
// constant motion (pause 0) and with every node paused for the whole run.
func TestSameSeedSameTopologyAcrossProtocols(t *testing.T) {
	type offered struct {
		flow uint32
		sent uint64
	}
	duration := smallParams(SRP, 0, 3).Duration
	for _, pause := range []time.Duration{0, duration} {
		t.Run("pause="+pause.String(), func(t *testing.T) {
			t.Parallel()
			var want []offered
			for _, proto := range AllProtocols {
				r := Run(smallParams(proto, pause, 3))
				got := make([]offered, len(r.Flows))
				for i, f := range r.Flows {
					got[i] = offered{f.Flow, f.Sent}
				}
				if want == nil {
					if len(got) == 0 {
						t.Fatalf("%s: no flows", proto)
					}
					want = got
					continue
				}
				if !slices.Equal(got, want) {
					t.Fatalf("workload differs across protocols: %s offered %v, %s %v", AllProtocols[0], want, proto, got)
				}
			}
		})
	}
}

func TestDeterminism(t *testing.T) {
	a := Run(smallParams(SRP, 0, 5))
	b := Run(smallParams(SRP, 0, 5))
	if a.DataRecv != b.DataRecv || a.ControlTx != b.ControlTx || a.Latency != b.Latency {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestSRPSeqnoStaysZero(t *testing.T) {
	r := Run(smallParams(SRP, 0, 13))
	if r.AvgSeqno != 0 {
		t.Fatalf("SRP average seqno = %v, paper reports exactly 0", r.AvgSeqno)
	}
	if r.MaxDenom == 0 {
		t.Fatal("no fraction denominators recorded")
	}
}

func TestAODVSeqnoGrows(t *testing.T) {
	r := Run(smallParams(AODV, 0, 13))
	if r.AvgSeqno <= 0 {
		t.Fatal("AODV average seqno did not grow")
	}
}

func TestRunTrialsOrdered(t *testing.T) {
	p := smallParams(SRP, 900*time.Second, 100)
	p.Nodes = 15
	p.Duration = 20 * time.Second
	ts := RunTrials(p, 4)
	if len(ts.Results) != 4 {
		t.Fatalf("got %d results", len(ts.Results))
	}
	for i, r := range ts.Results {
		if r.Seed != 100+int64(i) {
			t.Fatalf("result %d has seed %d", i, r.Seed)
		}
	}
	s := ts.Series(func(r Result) float64 { return r.DeliveryRatio })
	if len(s.Values) != 4 {
		t.Fatalf("series has %d values", len(s.Values))
	}
}

func TestUnknownProtocolPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown protocol")
		}
	}()
	Run(Params{Protocol: "bogus", Nodes: 2, Terrain: geo.Terrain{Width: 100, Height: 100},
		Range: 100, Duration: time.Second, Mobility: mobility.Spec{Model: "static"},
		Traffic: traffic.Params{Flows: 1, PacketSize: 512, Rate: 4, MeanLife: time.Second}})
}

// TestFlowAndHistogramAccounting verifies the streaming metrics pipeline
// end to end: a run's per-flow ledger reconciles with its totals, and the
// latency/hop histograms carry exactly the delivered packets.
func TestFlowAndHistogramAccounting(t *testing.T) {
	r := Run(smallParams(SRP, 0, 5))
	if len(r.Flows) == 0 {
		t.Fatal("no per-flow stats recorded")
	}
	var sent, recv uint64
	lastFlow := uint32(0)
	for _, f := range r.Flows {
		if f.Flow <= lastFlow {
			t.Fatalf("flows not in ascending id order: %+v", r.Flows)
		}
		lastFlow = f.Flow
		if f.Recv > f.Sent {
			t.Errorf("flow %d delivered more than it sent: %+v", f.Flow, f)
		}
		if f.Recv > 0 && f.LastRecv < f.FirstRecv {
			t.Errorf("flow %d delivery times inverted: %+v", f.Flow, f)
		}
		sent += f.Sent
		recv += f.Recv
	}
	// Every workload packet belongs to exactly one flow.
	if sent != r.DataSent || recv != r.DataRecv {
		t.Fatalf("flow ledger sums %d/%d != run totals %d/%d", sent, recv, r.DataSent, r.DataRecv)
	}
	if r.LatencyHist.N != r.DataRecv || r.HopHist.N != r.DataRecv {
		t.Fatalf("histogram N (%d, %d) != delivered %d", r.LatencyHist.N, r.HopHist.N, r.DataRecv)
	}
	if !(r.LatencyP50 > 0 && r.LatencyP50 <= r.LatencyP95 && r.LatencyP95 <= r.LatencyP99) {
		t.Fatalf("percentiles not ordered: p50=%v p95=%v p99=%v", r.LatencyP50, r.LatencyP95, r.LatencyP99)
	}
	// Bucket-bound percentiles bound the mean from the right direction:
	// p99 must not sit below the mean of its own samples' histogram.
	if r.LatencyP99 < r.Latency/2 {
		t.Fatalf("p99 %v implausibly below mean %v", r.LatencyP99, r.Latency)
	}
}
