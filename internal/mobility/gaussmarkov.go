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

// GaussMarkov is the Gauss-Markov mobility model: speed and direction are
// first-order autoregressive processes, so trajectories have tunable
// temporal correlation instead of the random waypoint's sharp turns. At
// each fixed step the node draws
//
//	s' = a*s + (1-a)*meanSpeed + sqrt(1-a^2)*sigmaS*N(0,1)
//	d' = a*d + (1-a)*meanDir   + sqrt(1-a^2)*sigmaD*N(0,1)
//
// with a the memory parameter: a=1 is straight-line motion, a=0 is
// Brownian. Nodes reflect off terrain edges, which also re-aims the mean
// direction so they drift back inside.
//
// Spec.Params knobs: "alpha" in [0, 1] (default 0.75), "step_seconds" of
// at least a millisecond (default 1), "speed_sigma" >= 0 (default
// (max-min)/4), "dir_sigma" >= 0 in radians (default 0.4); a value out of
// range is an error. Speed is clamped to [MinSpeed, MaxSpeed], so the
// model honours the Spec.MaxSpeed drift contract.
type GaussMarkov struct {
	terrain geo.Terrain
	rng     *rand.Rand

	alpha      float64
	meanSpeed  float64
	minSpeed   float64
	maxSpeed   float64
	sigmaSpeed float64
	sigmaDir   float64
	step       sim.Time

	// Current step: moving from `from` (at stepStart) to `to`
	// (at stepStart+step) with the step's speed and direction.
	from      geo.Point
	to        geo.Point
	stepStart sim.Time
	speed     float64
	dir       float64
	meanDir   float64
}

var _ Model = (*GaussMarkov)(nil)

// minStep is the shortest step gauss-markov admits.
const minStep = sim.Time(time.Millisecond)

// gaussMarkovParams are the model's Spec.Params knobs in spec units.
type gaussMarkovParams struct {
	alpha, speedSigma, dirSigma float64
	step                        sim.Time
}

// gaussMarkovAppliers are gauss-markov's Spec.Params keys.
var gaussMarkovAppliers = map[string]registry.Applier[gaussMarkovParams]{
	"alpha":        registry.Real(func(k *gaussMarkovParams, v float64) { k.alpha = v }),
	"step_seconds": registry.Seconds(func(k *gaussMarkovParams, v sim.Time) { k.step = v }),
	"speed_sigma":  registry.Real(func(k *gaussMarkovParams, v float64) { k.speedSigma = v }),
	"dir_sigma":    registry.Real(func(k *gaussMarkovParams, v float64) { k.dirSigma = v }),
}

// NewGaussMarkov returns a Gauss-Markov model starting at a uniform random
// point with a uniform random heading.
func NewGaussMarkov(t geo.Terrain, rng *rand.Rand, s Spec) (*GaussMarkov, error) {
	// maxSpeed is the hard contract the radio grid trusts; an inverted
	// range clamps the floor down, never the ceiling up.
	minSpeed, maxSpeed := s.MinSpeed, s.MaxSpeed
	if minSpeed > maxSpeed {
		minSpeed = maxSpeed
	}
	k, err := registry.ApplyParams("mobility: gauss-markov", s.Params, gaussMarkovAppliers,
		gaussMarkovParams{alpha: 0.75, step: time.Second, speedSigma: (maxSpeed - minSpeed) / 4, dirSigma: 0.4})
	if err != nil {
		return nil, err
	}
	switch {
	case !(k.alpha >= 0 && k.alpha <= 1):
		return nil, fmt.Errorf("mobility: gauss-markov alpha %v must be in [0, 1]", k.alpha)
	case k.step < minStep:
		// Steps far shorter make a trial draw one per simulated
		// nanosecond or so; a millisecond is the floor.
		return nil, fmt.Errorf("mobility: gauss-markov step_seconds %v must be at least %v", k.step.Seconds(), minStep.Seconds())
	case k.speedSigma < 0 || k.dirSigma < 0:
		return nil, fmt.Errorf("mobility: gauss-markov speed_sigma %v and dir_sigma %v must be >= 0", k.speedSigma, k.dirSigma)
	}
	g := &GaussMarkov{
		terrain:    t,
		rng:        rng,
		alpha:      k.alpha,
		meanSpeed:  (minSpeed + maxSpeed) / 2,
		minSpeed:   minSpeed,
		maxSpeed:   maxSpeed,
		sigmaSpeed: k.speedSigma,
		sigmaDir:   k.dirSigma,
		step:       k.step,
	}
	g.from = randPoint(t, rng)
	g.dir = rng.Float64() * 2 * math.Pi
	g.meanDir = g.dir
	g.speed = g.meanSpeed
	g.to = g.advanceFrom(g.from)
	return g, nil
}

// Position returns the node's position at time t, advancing steps as needed.
func (g *GaussMarkov) Position(t sim.Time) geo.Point {
	for t >= g.stepStart+g.step {
		g.nextStep()
	}
	frac := float64(t-g.stepStart) / float64(g.step)
	return geo.Lerp(g.from, g.to, frac)
}

// nextStep commits the current step and draws the next speed/direction.
func (g *GaussMarkov) nextStep() {
	g.from = g.to
	g.stepStart += g.step

	decay := math.Sqrt(1 - g.alpha*g.alpha)
	g.speed = g.alpha*g.speed + (1-g.alpha)*g.meanSpeed + decay*g.sigmaSpeed*g.rng.NormFloat64()
	if g.speed < g.minSpeed {
		g.speed = g.minSpeed
	}
	if g.speed > g.maxSpeed {
		g.speed = g.maxSpeed
	}
	// Pull the heading toward meanDir via the nearest angular branch so
	// the mix has no 2-pi discontinuity.
	for g.dir-g.meanDir > math.Pi {
		g.dir -= 2 * math.Pi
	}
	for g.meanDir-g.dir > math.Pi {
		g.dir += 2 * math.Pi
	}
	g.dir = g.alpha*g.dir + (1-g.alpha)*g.meanDir + decay*g.sigmaDir*g.rng.NormFloat64()
	g.to = g.advanceFrom(g.from)
}

// advanceFrom integrates one step from p, reflecting off terrain edges.
// Reflection folds the path, so the end point is never farther from p than
// speed*step: the MaxSpeed drift bound survives bounces.
func (g *GaussMarkov) advanceFrom(p geo.Point) geo.Point {
	dist := g.speed * g.step.Seconds()
	q := geo.Point{X: p.X + dist*math.Cos(g.dir), Y: p.Y + dist*math.Sin(g.dir)}
	if q.X < 0 {
		q.X = -q.X
		g.dir = math.Pi - g.dir
		g.meanDir = math.Pi - g.meanDir
	} else if q.X > g.terrain.Width {
		q.X = 2*g.terrain.Width - q.X
		g.dir = math.Pi - g.dir
		g.meanDir = math.Pi - g.meanDir
	}
	if q.Y < 0 {
		q.Y = -q.Y
		g.dir = -g.dir
		g.meanDir = -g.meanDir
	} else if q.Y > g.terrain.Height {
		q.Y = 2*g.terrain.Height - q.Y
		g.dir = -g.dir
		g.meanDir = -g.meanDir
	}
	// A step longer than the terrain could still land outside after one
	// reflection; clamping keeps the containment contract absolute.
	return g.terrain.Clamp(q)
}
