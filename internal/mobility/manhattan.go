package mobility

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"slr/internal/geo"
	"slr/internal/registry"
	"slr/internal/sim"
)

// manhattanDirs are the four street headings: +x, +y, -x, -y.
var manhattanDirs = [4]geo.Point{{X: 1}, {Y: 1}, {X: -1}, {Y: -1}}

// Manhattan is the Manhattan-grid mobility model: nodes move along a
// rectangular grid of streets spaced "block_m" meters apart (default 100,
// at least 1), as in an urban map. A node travels one block at a uniform
// random speed in [MinSpeed, MaxSpeed], then at the intersection continues
// straight with probability 1/2 or turns left/right with probability 1/4
// each (invalid headings at the terrain boundary are re-drawn among the
// valid ones), and rests Spec.Pause before the next block.
//
// The street grid spans the largest whole number of blocks that fits the
// terrain, so every position is inside the terrain and speed never exceeds
// Spec.MaxSpeed — the two contracts the radio spatial index depends on.
type Manhattan struct {
	rng      *rand.Rand
	block    float64
	nx, ny   int // intersections run (0..nx, 0..ny)
	minSpeed float64
	maxSpeed float64
	pause    sim.Time

	// Current leg: moving from `from` (departing at depart) to `to`
	// (arriving at arrive), then pausing until resumeT.
	ix, iy  int // intersection the node is heading to, in grid units
	dir     int // index into manhattanDirs
	from    geo.Point
	to      geo.Point
	depart  sim.Time
	arrive  sim.Time
	resumeT sim.Time
}

var _ Model = (*Manhattan)(nil)

// minBlock is the shortest block_m manhattan admits, in meters.
const minBlock = 1

// manhattanAppliers are manhattan's Spec.Params keys; each sets the
// block side in meters.
var manhattanAppliers = map[string]registry.Applier[float64]{
	"block_m": registry.Real(func(block *float64, v float64) { *block = v }),
}

// NewManhattan returns a Manhattan model starting at a uniform random
// intersection with a uniform random valid heading.
func NewManhattan(t geo.Terrain, rng *rand.Rand, s Spec) (*Manhattan, error) {
	block, err := registry.ApplyParams("mobility: manhattan", s.Params, manhattanAppliers, 100)
	if err != nil {
		return nil, err
	}
	// Blocks far under a meter make legs so short that a trial advances
	// one per simulated nanosecond; a meter is the floor.
	if block < minBlock {
		return nil, fmt.Errorf("mobility: manhattan block_m %v must be at least %v", block, minBlock)
	}
	// The quotients are compared before the conversion, whose result past
	// the int range depends on the platform.
	fx, fy := t.Width/block, t.Height/block
	if !(fx < math.MaxInt32 && fy < math.MaxInt32) {
		return nil, fmt.Errorf("mobility: manhattan block_m %v makes more than %d blocks a side on terrain %vx%v",
			block, math.MaxInt32, t.Width, t.Height)
	}
	nx, ny := int(fx), int(fy)
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("mobility: manhattan block_m %v does not fit terrain %vx%v",
			block, t.Width, t.Height)
	}
	m := &Manhattan{
		rng:   rng,
		block: block,
		nx:    nx,
		ny:    ny,
		// The speed floor clamps down to the hard MaxSpeed contract,
		// never the ceiling up.
		minSpeed: math.Min(s.MinSpeed, s.MaxSpeed),
		maxSpeed: s.MaxSpeed,
		pause:    s.Pause,
	}
	m.ix = rng.Intn(nx + 1)
	m.iy = rng.Intn(ny + 1)
	m.dir = m.drawDir(rng.Intn(4))
	// Start as if the node just arrived at its intersection, mirroring
	// Waypoint: different pause times differentiate immediately.
	m.from = geo.Point{X: float64(m.ix) * block, Y: float64(m.iy) * block}
	m.to = m.from
	m.resumeT = m.pause
	if s.MaxSpeed <= 0 {
		// A zero speed bound means the node never moves; parking it
		// outright keeps the MaxSpeed drift contract exact instead of
		// letting the anti-stall speed floor break it.
		m.resumeT = math.MaxInt64
	}
	return m, nil
}

// validDir reports whether heading d from the current intersection stays on
// the street grid.
func (m *Manhattan) validDir(d int) bool {
	nx := m.ix + int(manhattanDirs[d].X)
	ny := m.iy + int(manhattanDirs[d].Y)
	return nx >= 0 && nx <= m.nx && ny >= 0 && ny <= m.ny
}

// drawDir turns the preferred heading into a valid one, re-drawing
// uniformly among valid headings when the preference leads off the grid.
func (m *Manhattan) drawDir(pref int) int {
	if m.validDir(pref) {
		return pref
	}
	valid := make([]int, 0, 4)
	for d := 0; d < 4; d++ {
		if m.validDir(d) {
			valid = append(valid, d)
		}
	}
	return valid[m.rng.Intn(len(valid))]
}

// Position returns the node's position at time t, advancing legs as needed.
func (m *Manhattan) Position(t sim.Time) geo.Point {
	for t >= m.resumeT {
		m.nextLeg()
	}
	if t >= m.arrive {
		return m.to // pausing at the intersection
	}
	frac := float64(t-m.depart) / float64(m.arrive-m.depart)
	return geo.Lerp(m.from, m.to, frac)
}

// nextLeg picks the next heading at the intersection and starts a block.
func (m *Manhattan) nextLeg() {
	// Straight 1/2, left 1/4, right 1/4.
	turn := m.rng.Float64()
	pref := m.dir
	switch {
	case turn < 0.25:
		pref = (m.dir + 1) % 4
	case turn < 0.5:
		pref = (m.dir + 3) % 4
	}
	m.dir = m.drawDir(pref)
	m.ix += int(manhattanDirs[m.dir].X)
	m.iy += int(manhattanDirs[m.dir].Y)

	m.from = m.to
	m.to = geo.Point{X: float64(m.ix) * m.block, Y: float64(m.iy) * m.block}
	m.depart = m.resumeT
	// The anti-stall floor must never exceed the model's hard MaxSpeed
	// bound — the radio grid's drift math depends on it.
	speed := m.minSpeed + m.rng.Float64()*(m.maxSpeed-m.minSpeed)
	if floor := math.Min(0.1, m.maxSpeed); speed < floor {
		speed = floor
	}
	travel := sim.Span(float64(time.Second) * m.block / speed)
	if travel <= 0 {
		travel = 1
	}
	m.arrive = m.depart + travel
	m.resumeT = m.arrive + m.pause
	if m.resumeT <= m.depart {
		m.resumeT = m.depart + 1
	}
}
