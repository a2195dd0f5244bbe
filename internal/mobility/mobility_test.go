package mobility

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"slr/internal/geo"
	"slr/internal/sim"
)

var testTerrain = geo.Terrain{Width: 1000, Height: 500}

func TestStatic(t *testing.T) {
	m := &Static{At: geo.Point{X: 3, Y: 4}}
	for _, tt := range []sim.Time{0, time.Second, time.Hour} {
		if got := m.Position(tt); got != (geo.Point{X: 3, Y: 4}) {
			t.Fatalf("Position(%v) = %v", tt, got)
		}
	}
}

func TestWaypointStaysInTerrain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := NewWaypoint(testTerrain, rng, 0, 20, 0)
	for i := 0; i < 10000; i++ {
		p := w.Position(sim.Time(i) * 100 * time.Millisecond)
		if !testTerrain.Contains(p) {
			t.Fatalf("step %d: %v left terrain", i, p)
		}
	}
}

func TestWaypointPausesAtStart(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pause := 10 * time.Second
	w := NewWaypoint(testTerrain, rng, 5, 5, pause)
	p0 := w.Position(0)
	p1 := w.Position(pause - time.Millisecond)
	if p0 != p1 {
		t.Fatalf("node moved during initial pause: %v -> %v", p0, p1)
	}
	// After the pause it must eventually move.
	moved := false
	for i := 1; i <= 100; i++ {
		if w.Position(pause+sim.Time(i)*time.Second) != p0 {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("node never moved after pause")
	}
}

func TestWaypointSpeedBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const maxSpeed = 20.0
	w := NewWaypoint(testTerrain, rng, 0, maxSpeed, 0)
	if got := w.MaxSpeed(); got != maxSpeed {
		t.Fatalf("MaxSpeed() = %v, want %v", got, maxSpeed)
	}
	prev := w.Position(0)
	step := 100 * time.Millisecond
	for i := 1; i < 20000; i++ {
		cur := w.Position(sim.Time(i) * step)
		d := prev.Dist(cur)
		limit := maxSpeed * step.Seconds() * 1.001
		if d > limit {
			t.Fatalf("step %d: moved %.2f m in %v (limit %.2f)", i, d, step, limit)
		}
		prev = cur
	}
}

func TestWaypointNoMobilityEqualsStatic(t *testing.T) {
	// A pause time longer than the observation window means no movement,
	// the paper's 900 s "no mobility" point.
	rng := rand.New(rand.NewSource(5))
	w := NewWaypoint(testTerrain, rng, 0, 20, 900*time.Second)
	p0 := w.Position(0)
	if got := w.Position(899 * time.Second); got != p0 {
		t.Fatalf("node moved before first pause elapsed: %v -> %v", p0, got)
	}
}

func TestWaypointDeterminism(t *testing.T) {
	run := func(seed int64) []geo.Point {
		rng := rand.New(rand.NewSource(seed))
		w := NewWaypoint(testTerrain, rng, 0, 20, time.Second)
		var pts []geo.Point
		for i := 0; i < 500; i++ {
			pts = append(pts, w.Position(sim.Time(i)*time.Second))
		}
		return pts
	}
	a, b := run(11), run(11)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
}

func TestTraceInterpolation(t *testing.T) {
	tr := NewTrace([]TracePoint{
		{At: 10 * time.Second, Pos: geo.Point{X: 0, Y: 0}},
		{At: 20 * time.Second, Pos: geo.Point{X: 100, Y: 0}},
		{At: 0, Pos: geo.Point{X: 0, Y: 0}}, // out of order on purpose
	})
	if got := tr.Position(0); got != (geo.Point{}) {
		t.Errorf("Position(0) = %v", got)
	}
	if got := tr.Position(15 * time.Second); got != (geo.Point{X: 50, Y: 0}) {
		t.Errorf("Position(15s) = %v, want (50,0)", got)
	}
	if got := tr.Position(time.Hour); got != (geo.Point{X: 100, Y: 0}) {
		t.Errorf("Position(1h) = %v, want clamp to last", got)
	}
}

// TestTraceMaxSpeed verifies a trace reports the speed of its fastest
// segment — the bound the radio grid needs for a scripted mover — with
// rests, empty traces, and same-instant jumps handled.
func TestTraceMaxSpeed(t *testing.T) {
	rest := TracePoint{At: 5 * time.Second, Pos: geo.Point{X: 30}}
	for _, tc := range []struct {
		name   string
		points []TracePoint
		want   float64
	}{
		{"empty", nil, 0},
		{"parked", []TracePoint{rest, {At: time.Hour, Pos: rest.Pos}}, 0},
		{"fastest segment", []TracePoint{
			{At: 0, Pos: geo.Point{}},
			rest, // 6 m/s
			{At: 7 * time.Second, Pos: geo.Point{X: 30, Y: 50}},  // 25 m/s
			{At: 17 * time.Second, Pos: geo.Point{X: 30, Y: 40}}, // 1 m/s
		}, 25},
		{"rest at one instant", []TracePoint{rest, rest}, 0},
		{"jump", []TracePoint{rest, {At: rest.At, Pos: geo.Point{X: 31}}}, math.Inf(1)},
	} {
		if got := NewTrace(tc.points).MaxSpeed(); got != tc.want {
			t.Errorf("%s: MaxSpeed() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := NewTrace(nil)
	if got := tr.Position(time.Second); got != (geo.Point{}) {
		t.Errorf("empty trace Position = %v", got)
	}
}
