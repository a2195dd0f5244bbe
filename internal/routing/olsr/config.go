package olsr

import (
	"fmt"
	"time"

	"slr/internal/registry"
	"slr/internal/routing/rcommon"
	"slr/internal/sim"
)

// Config holds OLSR's intervals and holds.
type Config struct {
	HelloInterval sim.Time
	TCInterval    sim.Time
	NeighborHold  sim.Time
	TopologyHold  sim.Time
	Jitter        sim.Time
}

// DefaultConfig returns the draft's default timing.
func DefaultConfig() Config {
	return Config{
		HelloInterval: 2 * time.Second,
		TCInterval:    5 * time.Second,
		NeighborHold:  6 * time.Second,
		TopologyHold:  15 * time.Second,
		Jitter:        500 * time.Millisecond,
	}
}

// appliers are OLSR's spec-level keys; see ConfigFromParams.
var appliers = map[string]registry.Applier[Config]{
	"hello_interval_seconds": registry.Real(func(c *Config, v float64) { c.HelloInterval = rcommon.Seconds(v) }),
	"tc_interval_seconds":    registry.Real(func(c *Config, v float64) { c.TCInterval = rcommon.Seconds(v) }),
	"neighbor_hold_seconds":  registry.Real(func(c *Config, v float64) { c.NeighborHold = rcommon.Seconds(v) }),
	"topology_hold_seconds":  registry.Real(func(c *Config, v float64) { c.TopologyHold = rcommon.Seconds(v) }),
	"jitter_seconds":         registry.Real(func(c *Config, v float64) { c.Jitter = rcommon.Seconds(v) }),
}

// ConfigFromParams returns DefaultConfig with the spec-level overrides in
// params applied; durations arrive in seconds. Unknown keys and
// out-of-range values are errors.
func ConfigFromParams(params map[string]float64) (Config, error) {
	cfg, err := registry.ApplyParams("olsr", params, appliers, DefaultConfig())
	if err != nil {
		return Config{}, err
	}
	if err := cfg.validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// validate rejects configurations no deployment could run.
func (c Config) validate() error {
	if c.HelloInterval <= 0 || c.TCInterval <= 0 || c.NeighborHold <= 0 ||
		c.TopologyHold <= 0 || c.Jitter <= 0 {
		return fmt.Errorf("olsr: intervals and holds must be positive (hello %v, tc %v, neighbor_hold %v, topology_hold %v, jitter %v)",
			c.HelloInterval, c.TCInterval, c.NeighborHold, c.TopologyHold, c.Jitter)
	}
	return nil
}
