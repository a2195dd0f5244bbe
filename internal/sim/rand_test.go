package sim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// FuzzNewRandMatchesMathRand holds NewRand to math/rand draw for draw:
// every method simulation code calls, over four register lengths (so feed
// and tap wrap and every chunk is seeded), with one re-Seed mid-stream.
// script picks the method sequence; empty cycles through all of them.
func FuzzNewRandMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{
		0, -1, 1, 1<<31 - 2, 1<<31 - 1, 1 << 31, math.MinInt64, math.MaxInt64,
		// scenario.Run's per-node shapes, trial seed s: s<<16 + node for
		// mobility, s<<16 + nodes + 1 for traffic.
		1000<<16 + 0, 1000<<16 + 49, 1000<<16 + 51, 1<<16 + 4999, 1<<16 + 5001, -7<<16 + 3,
	} {
		f.Add(seed, seed^0x5a5a, []byte{})
	}
	f.Add(int64(42), int64(0), []byte{5, 5, 5, 7, 0, 3})
	f.Fuzz(func(t *testing.T, seed, reseed int64, script []byte) {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 4*rngLen; i++ {
			if i == 2*rngLen+rngTap {
				got.Seed(reseed)
				want.Seed(reseed)
			}
			op := byte(i)
			if len(script) > 0 {
				op = script[i%len(script)]
			}
			if g, w := draw(got, op, i), draw(want, op, i); g != w {
				t.Fatalf("seed %d (re-Seed %d at call %d): call %d, op %d: got %#x, want %#x",
					seed, reseed, 2*rngLen+rngTap, i, op%8, g, w)
			}
		}
	})
}

// draw makes call i of the fuzz script with method op, returning the bits
// of its result.
func draw(r *rand.Rand, op byte, i int) uint64 {
	switch op % 8 {
	case 0:
		return uint64(r.Int63())
	case 1:
		return r.Uint64()
	case 2:
		return uint64(r.Intn(1 + i))
	case 3:
		// Past 2^31, so Int63n's rejection loop runs.
		return uint64(r.Int63n(1<<40 + int64(i)))
	case 4:
		return math.Float64bits(r.Float64())
	case 5:
		return math.Float64bits(r.NormFloat64())
	case 6:
		return math.Float64bits(r.ExpFloat64())
	default:
		var h uint64
		for _, v := range r.Perm(1 + i%9) {
			h = h*31 + uint64(v)
		}
		return h
	}
}

// TestNewRandWaypointCost pins what one node's stream costs to build and
// to draw a waypoint start (origin, destination, speed: five Float64s):
// the generator seeds two chunks, never the 4.9 KB register.
func TestNewRandWaypointCost(t *testing.T) {
	var sink float64
	start := func() {
		r := NewRand(1000<<16 + 7)
		for range 5 {
			sink += r.Float64()
		}
	}
	if avg := testing.AllocsPerRun(100, start); avg > 4 {
		t.Errorf("NewRand plus a waypoint start allocates %.0f times, want <= 4 (Rand, source, two chunks)", avg)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		start()
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / runs; b >= 1024 {
		t.Errorf("NewRand plus a waypoint start allocates %d bytes, want < 1 KB", b)
	}
	_ = sink
}
