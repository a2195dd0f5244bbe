package mobility

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/sim"
)

// conformanceSpec is the configuration every registered model is held to.
func conformanceSpec(model string) Spec {
	return Spec{
		Model:    model,
		MinSpeed: 1,
		MaxSpeed: 15,
		Pause:    2 * time.Second,
	}
}

// conformanceTimes is a representative non-decreasing query schedule:
// dense and sparse gaps, repeated instants, and long jumps, over ~15 min.
func conformanceTimes() []sim.Time {
	var ts []sim.Time
	rng := rand.New(rand.NewSource(7))
	var t sim.Time
	for t < 900*time.Second {
		ts = append(ts, t)
		if rng.Intn(5) == 0 {
			ts = append(ts, t) // repeated query at the same instant
		}
		switch rng.Intn(3) {
		case 0:
			t += sim.Time(rng.Int63n(int64(100 * time.Millisecond)))
		case 1:
			t += sim.Time(rng.Int63n(int64(5 * time.Second)))
		default:
			t += sim.Time(rng.Int63n(int64(60 * time.Second)))
		}
	}
	return ts
}

// TestModelConformance applies the shared model contract to every
// registered mobility model: positions stay inside the terrain, any
// non-decreasing query schedule is legal (including repeated instants),
// the same seed replays the same trajectory, and displacement between two
// queries never exceeds MaxSpeed * elapsed — the drift bound the radio
// spatial index relies on.
func TestModelConformance(t *testing.T) {
	terrain := geo.Terrain{Width: 1000, Height: 600}
	times := conformanceTimes()
	for _, name := range Models() {
		t.Run(name, func(t *testing.T) {
			spec := conformanceSpec(name)
			for seed := int64(1); seed <= 3; seed++ {
				m, err := Build(terrain, rand.New(rand.NewSource(seed)), spec)
				if err != nil {
					t.Fatalf("Build(%q): %v", name, err)
				}
				replay, err := Build(terrain, rand.New(rand.NewSource(seed)), spec)
				if err != nil {
					t.Fatalf("Build(%q) replay: %v", name, err)
				}
				var prev geo.Point
				var prevT sim.Time
				for i, at := range times {
					p := m.Position(at)
					if !terrain.Contains(p) {
						t.Fatalf("seed %d: position %v at %v outside terrain", seed, p, at)
					}
					if q := replay.Position(at); q != p {
						t.Fatalf("seed %d: replay diverged at %v: %v vs %v", seed, at, q, p)
					}
					if i > 0 {
						// Allow a whisper of float slack on the speed bound.
						limit := spec.MaxSpeed*(at-prevT).Seconds() + 1e-6
						if d := p.Dist(prev); d > limit {
							t.Fatalf("seed %d: moved %.3f m in %v (limit %.3f) between %v and %v",
								seed, d, at-prevT, limit, prevT, at)
						}
					}
					prev, prevT = p, at
				}
			}
		})
	}
}

// TestSpeedBoundSurvivesAntiStallFloor verifies the hard MaxSpeed
// contract for bounds below the historical 0.1 m/s speed floor, and that
// a zero bound parks every model completely — both are what the radio
// spatial grid's drift math assumes.
func TestSpeedBoundSurvivesAntiStallFloor(t *testing.T) {
	terrain := geo.Terrain{Width: 1000, Height: 600}
	for _, name := range Models() {
		for _, maxSpeed := range []float64{0, 0.05} {
			m, err := Build(terrain, rand.New(rand.NewSource(9)),
				Spec{Model: name, MinSpeed: 0, MaxSpeed: maxSpeed})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var prev geo.Point
			var prevT sim.Time
			for i, at := range []sim.Time{0, time.Second, 10 * time.Second, 600 * time.Second} {
				p := m.Position(at)
				if i > 0 {
					limit := maxSpeed*(at-prevT).Seconds() + 1e-9
					if d := p.Dist(prev); d > limit {
						t.Fatalf("%s maxSpeed=%v: moved %.4f m in %v (limit %.4f)",
							name, maxSpeed, d, at-prevT, limit)
					}
				}
				prev, prevT = p, at
			}
		}
	}
}

// TestBuildUnknownModel verifies the registry rejects unregistered names.
func TestBuildUnknownModel(t *testing.T) {
	_, err := Build(geo.Terrain{Width: 100, Height: 100}, rand.New(rand.NewSource(1)), Spec{Model: "teleport"})
	if err == nil {
		t.Fatal("Build accepted unknown model")
	}
}

// TestRegisterDuplicatePanics verifies double registration is a loud
// wiring bug.
func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register("waypoint", func(geo.Terrain, *rand.Rand, Spec) (Model, error) { return &Static{}, nil })
}

// TestManhattanStaysOnStreets verifies Manhattan positions always lie on a
// street line of the block grid.
func TestManhattanStaysOnStreets(t *testing.T) {
	terrain := geo.Terrain{Width: 1000, Height: 600}
	spec := conformanceSpec("manhattan")
	m, err := Build(terrain, rand.New(rand.NewSource(42)), spec)
	if err != nil {
		t.Fatal(err)
	}
	block := 100.0
	onStreet := func(v float64) bool {
		_, frac := divmod(v, block)
		return frac < 1e-6 || block-frac < 1e-6
	}
	for at := sim.Time(0); at < 600*time.Second; at += 500 * time.Millisecond {
		p := m.Position(at)
		if !onStreet(p.X) && !onStreet(p.Y) {
			t.Fatalf("position %v at %v is off the street grid", p, at)
		}
	}
}

func divmod(v, m float64) (int, float64) {
	n := int(v / m)
	return n, v - float64(n)*m
}

// TestManhattanRejectsOversizedBlock verifies grid fitting is validated,
// naming block_m: a block wider than the terrain, a block under a meter,
// and one making more blocks a side than an int32 counts, which must be
// refused before the count is converted to an int.
func TestManhattanRejectsOversizedBlock(t *testing.T) {
	for _, c := range []struct{ block, width float64 }{{5000, 1000}, {0.5, 1000}, {1, 1e10}} {
		spec := conformanceSpec("manhattan")
		spec.Params = map[string]float64{"block_m": c.block}
		_, err := Build(geo.Terrain{Width: c.width, Height: 600}, rand.New(rand.NewSource(1)), spec)
		if err == nil || !strings.Contains(err.Error(), "block_m") {
			t.Errorf("manhattan block_m=%v on a %v m wide terrain: err %v, want a refusal naming block_m", c.block, c.width, err)
		}
	}
}

// TestGaussMarkovRefusesOutOfRange verifies gauss-markov refuses a knob
// out of its range, naming it, instead of clamping it to one in range: a
// memory parameter outside [0, 1], a step shorter than a millisecond or
// past what a sim.Time holds, a negative spread.
func TestGaussMarkovRefusesOutOfRange(t *testing.T) {
	for _, c := range []struct {
		key string
		v   float64
	}{
		{"alpha", -0.1}, {"alpha", 1.5},
		{"step_seconds", 0}, {"step_seconds", -1}, {"step_seconds", 1e-10}, {"step_seconds", 5e-4}, {"step_seconds", 1e10},
		{"speed_sigma", -1}, {"dir_sigma", -0.4},
	} {
		spec := conformanceSpec("gauss-markov")
		spec.Params = map[string]float64{c.key: c.v}
		_, err := Build(geo.Terrain{Width: 1000, Height: 600}, rand.New(rand.NewSource(1)), spec)
		if err == nil || !strings.Contains(err.Error(), c.key) {
			t.Errorf("gauss-markov %s=%v: err %v, want a refusal naming it", c.key, c.v, err)
		}
	}
}

// TestGaussMarkovStraightLineAlphaOne verifies alpha=1 keeps speed and
// heading fixed between bounces: equal steps cover equal distances.
func TestGaussMarkovStraightLineAlphaOne(t *testing.T) {
	spec := conformanceSpec("gauss-markov")
	spec.Params = map[string]float64{"alpha": 1}
	terrain := geo.Terrain{Width: 1e6, Height: 1e6} // no bounces
	m, err := Build(terrain, rand.New(rand.NewSource(5)), spec)
	if err != nil {
		t.Fatal(err)
	}
	p0 := m.Position(0)
	p1 := m.Position(10 * time.Second)
	p2 := m.Position(20 * time.Second)
	d1, d2 := p0.Dist(p1), p1.Dist(p2)
	if diff := d1 - d2; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("alpha=1 step distances differ: %.6f vs %.6f", d1, d2)
	}
}
