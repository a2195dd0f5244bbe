// Package mobility implements node mobility models for the wireless
// simulation. The paper's evaluation uses the random waypoint model: each
// node repeatedly picks a uniform random destination on the terrain, moves
// to it at a uniform random speed in [0, 20] m/s, then pauses for a fixed
// pause time. A pause time of 900 s (the full run) means no mobility; 0 s
// means constant motion.
package mobility

import (
	"math"
	"math/rand"
	"sort"
	"time"

	"slr/internal/geo"
	"slr/internal/sim"
)

// Model yields a node's position over time. Position may be called with any
// non-decreasing sequence of times; implementations advance internal state
// lazily and are not safe for concurrent use (a simulation run is
// single-threaded).
type Model interface {
	Position(t sim.Time) geo.Point
}

// Static is a Model that never moves.
type Static struct {
	At geo.Point
}

var _ Model = (*Static)(nil)

// Position returns the fixed location.
func (s *Static) Position(sim.Time) geo.Point { return s.At }

// Waypoint is the random waypoint model.
type Waypoint struct {
	terrain  geo.Terrain
	rng      *rand.Rand
	minSpeed float64 // m/s
	maxSpeed float64 // m/s
	pause    sim.Time

	// Current leg: moving from `from` (departing at depart) to `to`
	// (arriving at arrive), then pausing until arrive+pause.
	from    geo.Point
	to      geo.Point
	depart  sim.Time
	arrive  sim.Time
	resumeT sim.Time
}

var _ Model = (*Waypoint)(nil)

// NewWaypoint returns a random waypoint model starting at a uniform random
// point. Speeds are drawn uniformly from [minSpeed, maxSpeed] m/s; a floor
// of 0.1 m/s prevents the well-known zero-speed stall of the model. The
// node pauses at start (as if it just arrived) so different pause times
// differentiate immediately.
func NewWaypoint(terrain geo.Terrain, rng *rand.Rand, minSpeed, maxSpeed float64, pause sim.Time) *Waypoint {
	// maxSpeed is the hard contract the radio grid trusts; an inverted
	// range clamps the floor down, never the ceiling up.
	minSpeed = math.Min(minSpeed, maxSpeed)
	start := randPoint(terrain, rng)
	w := &Waypoint{
		terrain:  terrain,
		rng:      rng,
		minSpeed: minSpeed,
		maxSpeed: maxSpeed,
		pause:    pause,
		from:     start,
		to:       start,
		depart:   0,
		arrive:   0,
		resumeT:  pause,
	}
	if maxSpeed <= 0 {
		// A zero speed bound means the node never moves; parking it
		// outright keeps the MaxSpeed drift contract exact instead of
		// letting the anti-stall speed floor break it.
		w.resumeT = math.MaxInt64
	}
	return w
}

// MaxSpeed returns the model's hard speed bound in m/s; at or below zero
// the node is parked.
func (w *Waypoint) MaxSpeed() float64 { return w.maxSpeed }

func randPoint(t geo.Terrain, rng *rand.Rand) geo.Point {
	return geo.Point{X: rng.Float64() * t.Width, Y: rng.Float64() * t.Height}
}

// Position returns the node's position at time t, advancing legs as needed.
func (w *Waypoint) Position(t sim.Time) geo.Point {
	for t >= w.resumeT {
		w.nextLeg()
	}
	if t >= w.arrive {
		return w.to // pausing at the waypoint
	}
	frac := float64(t-w.depart) / float64(w.arrive-w.depart)
	return geo.Lerp(w.from, w.to, frac)
}

// nextLeg starts a new movement leg at the end of the current pause.
func (w *Waypoint) nextLeg() {
	w.from = w.to
	w.to = randPoint(w.terrain, w.rng)
	w.depart = w.resumeT
	// The anti-stall floor must never exceed the model's hard MaxSpeed
	// bound — the radio grid's drift math depends on it.
	speed := w.minSpeed + w.rng.Float64()*(w.maxSpeed-w.minSpeed)
	if floor := math.Min(0.1, w.maxSpeed); speed < floor {
		speed = floor
	}
	dist := w.from.Dist(w.to)
	travel := sim.Span(float64(time.Second) * dist / speed)
	if travel <= 0 {
		travel = 1 // degenerate zero-length leg: keep time advancing
	}
	w.arrive = w.depart + travel
	w.resumeT = w.arrive + w.pause
	if w.resumeT <= w.depart {
		// Guards against a zero pause and zero travel leaving the
		// model stuck at one instant.
		w.resumeT = w.depart + 1
	}
}

// TracePoint is a timestamped waypoint of a Trace model.
type TracePoint struct {
	At  sim.Time
	Pos geo.Point
}

// Trace replays piecewise-linear motion through fixed timestamped
// waypoints, the in-memory equivalent of the paper's offline-generated
// mobility scripts.
type Trace struct {
	points   []TracePoint
	maxSpeed float64
}

var _ Model = (*Trace)(nil)

// NewTrace returns a Trace through the given waypoints, sorted by time.
// An empty trace pins the node at the origin.
func NewTrace(points []TracePoint) *Trace {
	ps := make([]TracePoint, len(points))
	copy(ps, points)
	sort.Slice(ps, func(i, j int) bool { return ps[i].At < ps[j].At })
	tr := &Trace{points: ps}
	for i := 1; i < len(ps); i++ {
		a, b := ps[i-1], ps[i]
		if d := a.Pos.Dist(b.Pos); d > 0 {
			// A jump between two positions at one instant divides by
			// zero: +Inf, no bound.
			tr.maxSpeed = math.Max(tr.maxSpeed, d/(b.At-a.At).Seconds())
		}
	}
	return tr
}

// MaxSpeed returns the speed of the trace's fastest segment in m/s, the
// exact bound radio.Params.MaxSpeed needs for a scripted mover.
func (tr *Trace) MaxSpeed() float64 { return tr.maxSpeed }

// Position interpolates the trace at time t, clamping beyond the ends.
func (tr *Trace) Position(t sim.Time) geo.Point {
	ps := tr.points
	if len(ps) == 0 {
		return geo.Point{}
	}
	if t <= ps[0].At {
		return ps[0].Pos
	}
	last := ps[len(ps)-1]
	if t >= last.At {
		return last.Pos
	}
	i := sort.Search(len(ps), func(i int) bool { return ps[i].At > t }) - 1
	a, b := ps[i], ps[i+1]
	if b.At == a.At {
		return b.Pos
	}
	f := float64(t-a.At) / float64(b.At-a.At)
	return geo.Lerp(a.Pos, b.Pos, f)
}
