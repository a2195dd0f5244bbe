package mobility

import (
	"fmt"
	"math/rand"

	"slr/internal/geo"
	"slr/internal/registry"
	"slr/internal/sim"
)

// Spec selects a registered mobility model by name and carries its
// configuration. It is the mobility section of a declarative scenario spec
// (internal/spec); the zero Model string is not valid here — callers that
// want "the paper's default" build a waypoint Spec explicitly.
type Spec struct {
	// Model names a registered factory: "static", "waypoint",
	// "gauss-markov", "manhattan".
	Model string
	// MinSpeed and MaxSpeed bound node speed in m/s. MaxSpeed is a hard
	// contract: a model built from this Spec never moves a node faster
	// than MaxSpeed, which the radio layer's spatial index relies on to
	// bound position drift between cache refreshes.
	MinSpeed float64
	MaxSpeed float64
	// Pause is how long a node rests between movement legs (waypoint
	// destinations, manhattan intersections); ignored by models without
	// a natural stopping point.
	Pause sim.Time
	// Params carries model-specific tuning knobs; missing keys take the
	// model's documented defaults, and a key the model does not have is
	// an error (registry.ApplyParams).
	Params map[string]float64
}

// Factory builds a model for one node. Each node gets its own rng stream so
// a scenario seed fixes every node's trajectory independently of how other
// nodes (or the protocol stack) consume randomness.
type Factory func(t geo.Terrain, rng *rand.Rand, s Spec) (Model, error)

var factories = registry.New[Factory]("mobility model")

// Register adds a model factory under name. Registering a duplicate name
// panics: it is a wiring bug.
func Register(name string, f Factory) { factories.Register(name, f) }

// Models returns the registered model names, sorted.
func Models() []string { return factories.Names() }

// Build constructs the model selected by s for one node.
func Build(t geo.Terrain, rng *rand.Rand, s Spec) (Model, error) {
	f, ok := factories.Get(s.Model)
	if !ok {
		return nil, fmt.Errorf("mobility: unknown model %q (registered: %v)", s.Model, Models())
	}
	return f(t, rng, s)
}

func init() {
	Register("static", func(t geo.Terrain, rng *rand.Rand, s Spec) (Model, error) {
		if err := registry.NoParams("mobility: static", s.Params); err != nil {
			return nil, err
		}
		return &Static{At: randPoint(t, rng)}, nil
	})
	Register("waypoint", func(t geo.Terrain, rng *rand.Rand, s Spec) (Model, error) {
		if err := registry.NoParams("mobility: waypoint", s.Params); err != nil {
			return nil, err
		}
		return NewWaypoint(t, rng, s.MinSpeed, s.MaxSpeed, s.Pause), nil
	})
	Register("gauss-markov", func(t geo.Terrain, rng *rand.Rand, s Spec) (Model, error) {
		return NewGaussMarkov(t, rng, s)
	})
	Register("manhattan", func(t geo.Terrain, rng *rand.Rand, s Spec) (Model, error) {
		return NewManhattan(t, rng, s)
	})
}
