package radio

import (
	"fmt"
	"math"

	"slr/internal/registry"
)

// Propagation decides how far each link reaches. The channel keeps the
// paper's binary audibility model — a frame either arrives at a receiver
// or it does not — but the radius at which it arrives may vary per link:
// unit-disk uses one global range, while fading models give every node
// pair its own deterministic effective range.
//
// Implementations must be pure: LinkRange(a, b) is symmetric, independent
// of call order, and fixed for the whole run. The channel depends on it
// twice over: it asks only about the stations its spatial grid proposes, in
// whatever order, and it keeps a link's range in the sender's hearer list
// for a whole mobility epoch instead of asking per frame (Channel.hearers),
// so a model that answered differently the second time would be heard only
// the first. Per-link randomness therefore comes from hashing (seed, link),
// never from a shared rng stream.
type Propagation interface {
	// MaxRange bounds LinkRange over all links, exactly: no LinkRange may
	// exceed it by even a rounding error, because the channel never asks
	// about a station cached beyond MaxRange plus the drift allowance of
	// the sender. It must be positive and fixed for the run; the spatial
	// grid sizes its cells and its candidate search radius from it.
	MaxRange() float64
	// LinkRange returns the audible distance in meters for the link
	// between a and b.
	LinkRange(a, b NodeID) float64
}

// PropSpec selects a registered propagation model by name. The zero value
// selects unit-disk, the paper's GloMoSim radio.
type PropSpec struct {
	// Model names a registered factory: "unit-disk" or "shadowing".
	// Empty means "unit-disk".
	Model string `json:"model,omitempty"`
	// Params carries model-specific knobs (e.g. shadowing's "sigma_db");
	// missing keys take documented defaults, and a key the model does not
	// have is an error (registry.ApplyParams).
	Params map[string]float64 `json:"params,omitempty"`
}

// PropFactory builds a propagation model from the channel parameters
// (base range, per-run seed) and the spec's knobs.
type PropFactory func(p Params, spec PropSpec) (Propagation, error)

var propFactories = registry.New[PropFactory]("radio propagation")

// RegisterPropagation adds a propagation factory under name. Registering a
// duplicate name panics: it is a wiring bug.
func RegisterPropagation(name string, f PropFactory) { propFactories.Register(name, f) }

// PropagationModels returns the registered propagation names, sorted.
func PropagationModels() []string { return propFactories.Names() }

// NewPropagation builds the propagation selected by p.Propagation; an
// empty model name selects unit-disk.
func NewPropagation(p Params) (Propagation, error) {
	name := p.Propagation.Model
	if name == "" {
		name = "unit-disk"
	}
	f, ok := propFactories.Get(name)
	if !ok {
		return nil, fmt.Errorf("radio: unknown propagation %q (registered: %v)", name, PropagationModels())
	}
	return f(p, p.Propagation)
}

// unitDisk is the paper's propagation: one global radius for every link.
type unitDisk struct {
	r float64
}

func (u unitDisk) MaxRange() float64             { return u.r }
func (u unitDisk) LinkRange(_, _ NodeID) float64 { return u.r }

// linkHash mixes (seed, link) into 64 pseudo-random bits with a
// splitmix64-style finalizer. The link is unordered so gains are
// symmetric.
func linkHash(seed int64, a, b NodeID, stream uint64) uint64 {
	if a > b {
		a, b = b, a
	}
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	x ^= uint64(uint32(a))<<32 | uint64(uint32(b))
	x ^= stream * 0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// linkUniform returns a uniform draw in (0, 1] for the link.
func linkUniform(seed int64, a, b NodeID, stream uint64) float64 {
	// 53 high bits -> [0,1); the +1 shifts to (0,1] so ln() is safe.
	return (float64(linkHash(seed, a, b, stream)>>11) + 1) / (1 << 53)
}

// linkNormal returns a standard normal draw for the link via Box-Muller.
func linkNormal(seed int64, a, b NodeID) float64 {
	u1 := linkUniform(seed, a, b, 1)
	u2 := linkUniform(seed, a, b, 2)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// shadowing is log-normal shadowing: every link's pathloss carries a fixed
// Gaussian offset X ~ N(0, sigma_db) in dB, so its effective radius is
// Range * 10^(X / (10*n)) with n the pathloss exponent. Obstructed links
// fall short of the nominal range, lucky ones reach past it — the
// classic reason unit-disk topologies are too optimistic. X is clamped to
// +/-3 sigma so MaxRange (and the spatial grid's search radius) stays
// finite.
//
// PropSpec.Params knobs: "sigma_db" (default 4), "pathloss_exp"
// (default 3).
type shadowing struct {
	r     float64
	seed  int64
	sigma float64
	n     float64
	max   float64
}

// shadowingAppliers are shadowing's PropSpec.Params keys.
var shadowingAppliers = map[string]registry.Applier[shadowing]{
	"sigma_db":     registry.Real(func(s *shadowing, v float64) { s.sigma = v }),
	"pathloss_exp": registry.Real(func(s *shadowing, v float64) { s.n = v }),
}

func newShadowing(p Params, spec PropSpec) (Propagation, error) {
	s, err := registry.ApplyParams("radio: shadowing", spec.Params, shadowingAppliers,
		shadowing{r: p.Range, seed: p.Seed, sigma: 4, n: 3})
	if err != nil {
		return nil, err
	}
	if s.sigma < 0 || s.n <= 0 {
		return nil, fmt.Errorf("radio: shadowing sigma_db %v must be >= 0 and pathloss_exp %v > 0", s.sigma, s.n)
	}
	s.max = p.Range * math.Pow(10, 3*s.sigma/(10*s.n))
	return s, nil
}

func (s shadowing) MaxRange() float64 { return s.max }

func (s shadowing) LinkRange(a, b NodeID) float64 {
	x := s.sigma * linkNormal(s.seed, a, b)
	if x > 3*s.sigma {
		x = 3 * s.sigma
	} else if x < -3*s.sigma {
		x = -3 * s.sigma
	}
	return s.r * math.Pow(10, x/(10*s.n))
}

func init() {
	RegisterPropagation("unit-disk", func(p Params, spec PropSpec) (Propagation, error) {
		if err := registry.NoParams("radio: unit-disk", spec.Params); err != nil {
			return nil, err
		}
		return unitDisk{r: p.Range}, nil
	})
	RegisterPropagation("shadowing", newShadowing)
}
