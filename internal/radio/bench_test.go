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

// benchChannel measures Transmit cost (audible-set lookup plus reception
// bookkeeping) for n mobile stations on the 3000x3000 m terrain of the
// 500-node example scenarios. The tier names a fading propagation model,
// or is "grid" for unit-disk. It reports how often the channel had to ask
// the model for a link's range — under unit-disk once per in-range
// candidate, under a fading model only on a memo miss — and how many
// kernel events a transmission cost: one when anybody hears it, whatever
// the hearer count.
func benchChannel(b *testing.B, n int, tier string) {
	s := sim.New(1)
	p := DefaultParams()
	p.MaxSpeed = 20
	p.Seed = 1
	if tier != "grid" {
		p.Propagation.Model = tier
	}
	terrain := geo.Terrain{Width: 3000, Height: 3000}
	ch := NewChannel(s, p)
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		ch.Register(NodeID(i), mobility.NewWaypoint(terrain, rng, 1, p.MaxSpeed, 0), nil)
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
		// the index keeps re-bucketing, as in a real run.
		s.RunUntil(s.Now() + 2*time.Millisecond)
	}
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
		{"shadowing", 500}, {"shadowing", 1000},
		{"rayleigh", 500},
	} {
		b.Run(fmt.Sprintf("%s/N=%d", tier.name, tier.n), func(b *testing.B) {
			benchChannel(b, tier.n, tier.name)
		})
	}
}

// BenchmarkChannelTransmitLargeN checks that the grid's per-epoch bulk
// refresh keeps amortizing at the large-N tier: per-transmit cost must
// stay near the N=1000 numbers rather than grow with N.
func BenchmarkChannelTransmitLargeN(b *testing.B) {
	for _, n := range []int{2000, 5000} {
		b.Run(fmt.Sprintf("grid/N=%d", n), func(b *testing.B) {
			benchChannel(b, n, "grid")
		})
	}
}
