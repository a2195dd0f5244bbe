package traffic

import (
	"math/rand"
	"testing"
	"time"

	"slr/internal/netstack"
	"slr/internal/sim"
)

// fakeSender records originated packets.
type fakeSender struct {
	id   netstack.NodeID
	pkts []*netstack.DataPacket
}

func (f *fakeSender) ID() netstack.NodeID               { return f.id }
func (f *fakeSender) SendData(pkt *netstack.DataPacket) { f.pkts = append(f.pkts, pkt) }
func totalPackets(ss []*fakeSender) (n int) {
	for _, s := range ss {
		n += len(s.pkts)
	}
	return n
}

// paperParams is the paper's workload: 30 CBR flows of 512-byte packets
// at 4 pps, each living 60 s on average.
func paperParams() Params {
	return Params{Flows: 30, PacketSize: 512, Rate: 4, MeanLife: 60 * time.Second}
}

func build(n int) (*sim.Simulator, []*fakeSender, []Sender) {
	s := sim.New(5)
	senders := make([]*fakeSender, n)
	ifaces := make([]Sender, n)
	for i := range senders {
		senders[i] = &fakeSender{id: netstack.NodeID(i)}
		ifaces[i] = senders[i]
	}
	return s, senders, ifaces
}

func TestRateApproximatesWorkload(t *testing.T) {
	s, senders, ifaces := build(50)
	p := paperParams()
	end := sim.Time(100 * time.Second)
	g := NewGenerator(s, rand.New(rand.NewSource(1)), ifaces, p, end)
	g.Start()
	s.RunUntil(end + time.Minute)
	got := totalPackets(senders)
	// 30 flows x 4 pps x 100 s = 12000 expected; allow 15% slack for
	// flow-restart gaps and the initial stagger.
	want := 12000
	if got < want*85/100 || got > want*105/100 {
		t.Fatalf("packets = %d, want about %d", got, want)
	}
}

func TestEndpointsDistinct(t *testing.T) {
	s, senders, ifaces := build(10)
	g := NewGenerator(s, rand.New(rand.NewSource(2)), ifaces, paperParams(), 50*time.Second)
	g.Start()
	s.RunUntil(time.Minute)
	for _, snd := range senders {
		for _, pkt := range snd.pkts {
			if pkt.Src == pkt.Dst {
				t.Fatalf("self flow: %+v", pkt)
			}
			if pkt.Src != snd.id {
				t.Fatalf("packet src %d originated at %d", pkt.Src, snd.id)
			}
		}
	}
}

func TestUIDsUnique(t *testing.T) {
	s, senders, ifaces := build(10)
	g := NewGenerator(s, rand.New(rand.NewSource(3)), ifaces, paperParams(), 30*time.Second)
	g.Start()
	s.RunUntil(time.Minute)
	seen := make(map[uint64]bool)
	for _, snd := range senders {
		for _, pkt := range snd.pkts {
			if seen[pkt.UID] {
				t.Fatalf("duplicate UID %d", pkt.UID)
			}
			seen[pkt.UID] = true
		}
	}
	if len(seen) == 0 {
		t.Fatal("no packets generated")
	}
}

func TestFlowPopulationConstant(t *testing.T) {
	s, _, ifaces := build(20)
	p := paperParams()
	p.Flows = 7
	g := NewGenerator(s, rand.New(rand.NewSource(4)), ifaces, p, 5*time.Minute)
	g.Start()
	// Sample the live-flow count during steady state.
	for i := 10; i < 290; i += 10 {
		s.At(sim.Time(i)*time.Second, func() {
			if g.Live() != 7 {
				t.Errorf("live flows = %d at %v, want 7", g.Live(), s.Now())
			}
		})
	}
	s.RunUntil(6 * time.Minute)
}

func TestStopsAtEnd(t *testing.T) {
	s, senders, ifaces := build(5)
	end := sim.Time(10 * time.Second)
	g := NewGenerator(s, rand.New(rand.NewSource(6)), ifaces, paperParams(), end)
	g.Start()
	s.RunUntil(time.Hour)
	for _, snd := range senders {
		for _, pkt := range snd.pkts {
			if pkt.Created > end {
				t.Fatalf("packet created at %v after end %v", pkt.Created, end)
			}
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("generator left %d events pending", s.Pending())
	}
}

func TestTooFewNodes(t *testing.T) {
	s, senders, ifaces := build(1)
	g := NewGenerator(s, rand.New(rand.NewSource(7)), ifaces, paperParams(), 10*time.Second)
	g.Start()
	s.RunUntil(time.Minute)
	if totalPackets(senders) != 0 {
		t.Fatal("generated traffic with a single node")
	}
}
