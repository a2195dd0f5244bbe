package radio

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/sim"
)

// benchChannel measures Transmit cost (the walk of the sender's hearer
// list plus reception bookkeeping) for n mobile stations on the 3000x3000 m
// terrain of the 500-node example scenarios. The tier names a fading
// propagation model, or is "grid" for unit-disk, or is "fast": unit-disk
// under a speed bound so high (the movers themselves are no faster) that a
// mobility epoch is shorter than the 2 ms between frames, the worst case,
// in which every transmission re-caches every station and rebuilds its
// list. It reports how many lists were built and how often the channel
// asked the model for a link's range — once per station cached within the
// build radius per build, whatever the model — and how many kernel events a
// transmission cost: one when anybody hears it, whatever the hearer count.
func benchChannel(b *testing.B, n int, tier string) {
	const speed = 20 // m/s, the movers' fastest
	s := sim.New(1)
	p := DefaultParams()
	p.MaxSpeed = speed
	p.Seed = 1
	switch tier {
	case "grid":
	case "fast":
		p.MaxSpeed = 1e5
	default:
		p.Propagation.Model = tier
	}
	terrain := geo.Terrain{Width: 3000, Height: 3000}
	ch := NewChannel(s, p)
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		ch.Register(NodeID(i), mobility.NewWaypoint(terrain, rng, 1, speed, 0), nil)
	}
	calls := &callCounter{Propagation: ch.prop}
	ch.prop = calls
	f := &Frame{To: Broadcast, Kind: Data, Size: 64}
	fired := s.Fired()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.From = NodeID(i % n)
		ch.Transmit(f)
		// Advance past the frame so receptions drain and stations move:
		// epochs pass and lists are rebuilt, as in a real run.
		s.RunUntil(s.Now() + 2*time.Millisecond)
	}
	b.ReportMetric(float64(ch.listBuilds)/float64(b.N), "list-builds/op")
	b.ReportMetric(float64(calls.n)/float64(b.N), "linkrange-calls/op")
	b.ReportMetric(float64(s.Fired()-fired)/float64(b.N), "events/op")
}

// callCounter counts LinkRange calls and nothing else, so the wrapper adds
// one increment to the call it measures (countingProp builds on it).
type callCounter struct {
	Propagation
	n int
}

func (c *callCounter) LinkRange(a, b NodeID) float64 {
	c.n++
	return c.Propagation.LinkRange(a, b)
}

func BenchmarkChannelTransmit(b *testing.B) {
	for _, tier := range []struct {
		name string
		n    int
	}{
		{"grid", 100}, {"grid", 500}, {"grid", 1000},
		{"fast", 500},
		{"shadowing", 500}, {"shadowing", 1000},
	} {
		b.Run(fmt.Sprintf("%s/N=%d", tier.name, tier.n), func(b *testing.B) {
			benchChannel(b, tier.n, tier.name)
		})
	}
}

// BenchmarkChannelTransmitLargeN checks that the grid's per-epoch bulk
// refresh and the list rebuilds that follow it keep amortizing at the
// large-N tier: per-transmit cost must stay near the N=1000 numbers rather
// than grow with N.
func BenchmarkChannelTransmitLargeN(b *testing.B) {
	for _, n := range []int{2000, 5000} {
		b.Run(fmt.Sprintf("grid/N=%d", n), func(b *testing.B) {
			benchChannel(b, n, "grid")
		})
	}
}
