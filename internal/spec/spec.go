// Package spec loads declarative scenario specifications: versioned JSON
// documents that describe a complete simulation run — node count, terrain,
// radio propagation, mobility model, traffic workload — resolved through
// the model registries in internal/mobility, internal/traffic, and
// internal/radio. A spec file is the single source of truth for a
// workload: the same file drives cmd/slrsim, cmd/experiments, and any
// future sweep tooling, and committing one pins an experiment exactly.
//
// The format is deliberately flat and explicit (all durations in seconds,
// all distances in meters):
//
//	{
//	  "version": 1,
//	  "name": "paper-default",
//	  "protocol": "SRP",
//	  "nodes": 100,
//	  "terrain": {"width_m": 2200, "height_m": 600},
//	  "duration_seconds": 900,
//	  "seed": 1,
//	  "trials": 10,
//	  "radio": {"range_m": 275, "propagation": "unit-disk"},
//	  "mobility": {"model": "waypoint", "min_speed_mps": 0,
//	               "max_speed_mps": 20, "pause_seconds": 0},
//	  "traffic": {"model": "cbr", "flows": 30, "packet_size_bytes": 512,
//	              "rate_pps": 4, "mean_life_seconds": 60}
//	}
//
// Model-specific knobs ride in each section's "params" map (e.g.
// {"model": "manhattan", "params": {"block_m": 150}}), and the routing
// protocol's constants in the top-level "protocol_params" map (durations
// in seconds, booleans as 0/1 — e.g. {"rreq_retries": 4,
// "ttl_0": 35}). Every one of these maps is strict: it is read by
// registry.ApplyParams against its model's or protocol's own vocabulary,
// so a key the model does not have, a fractional count or a non-finite
// value is an error, never a default. Unknown fields are rejected so typos
// fail loudly, and Validate resolves every model and protocol name against
// its registry before a simulator is built.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/radio"
	"slr/internal/routing"
	"slr/internal/scenario"
	"slr/internal/sim"
	"slr/internal/traffic"
)

// Version is the spec format version this package reads and writes.
const Version = 1

// Terrain is the rectangular field, in meters.
type Terrain struct {
	WidthM  float64 `json:"width_m"`
	HeightM float64 `json:"height_m"`
}

// Radio is the channel section.
type Radio struct {
	RangeM float64 `json:"range_m"`
	// Propagation names a registered propagation model; empty means
	// "unit-disk".
	Propagation string             `json:"propagation,omitempty"`
	Params      map[string]float64 `json:"params,omitempty"`
}

// Mobility is the mobility section.
type Mobility struct {
	// Model names a registered mobility model: "static", "waypoint",
	// "gauss-markov", "manhattan".
	Model        string             `json:"model"`
	MinSpeedMps  float64            `json:"min_speed_mps"`
	MaxSpeedMps  float64            `json:"max_speed_mps"`
	PauseSeconds float64            `json:"pause_seconds"`
	Params       map[string]float64 `json:"params,omitempty"`
}

// Traffic is the workload section.
type Traffic struct {
	// Model names a registered traffic model; empty means "cbr".
	Model           string             `json:"model,omitempty"`
	Flows           int                `json:"flows"`
	PacketSizeBytes int                `json:"packet_size_bytes"`
	RatePps         float64            `json:"rate_pps"`
	MeanLifeSeconds float64            `json:"mean_life_seconds"`
	Params          map[string]float64 `json:"params,omitempty"`
}

// ScenarioSpec is a complete declarative scenario.
type ScenarioSpec struct {
	Version  int    `json:"version"`
	Name     string `json:"name,omitempty"`
	Protocol string `json:"protocol"`
	// ProtocolParams overrides the protocol's constants; keys are
	// protocol-specific (see each protocol's ConfigFromParams), durations
	// in seconds, booleans as 0/1. Missing keys take the protocol's
	// published defaults; unknown keys fail validation.
	ProtocolParams  map[string]float64 `json:"protocol_params,omitempty"`
	Nodes           int                `json:"nodes"`
	Terrain         Terrain            `json:"terrain"`
	DurationSeconds float64            `json:"duration_seconds"`
	Seed            int64              `json:"seed,omitempty"`   // default 1
	Trials          int                `json:"trials,omitempty"` // default 1
	Radio           Radio              `json:"radio"`
	Mobility        Mobility           `json:"mobility"`
	Traffic         Traffic            `json:"traffic"`
	CheckInvariants bool               `json:"check_invariants,omitempty"`
}

// PaperDefault returns the named built-in spec reproducing the paper's
// evaluation setup (§V): 100 nodes, 2200x600 m, 0-20 m/s random waypoint,
// 30 CBR flows of 512-byte packets at 4 pps, 900 s, unit-disk radio.
func PaperDefault() *ScenarioSpec {
	return &ScenarioSpec{
		Version:         Version,
		Name:            "paper-default",
		Protocol:        "SRP",
		Nodes:           100,
		Terrain:         Terrain{WidthM: 2200, HeightM: 600},
		DurationSeconds: 900,
		Seed:            1,
		Trials:          10,
		Radio:           Radio{RangeM: 275, Propagation: "unit-disk"},
		Mobility:        Mobility{Model: "waypoint", MaxSpeedMps: 20},
		Traffic:         Traffic{Model: "cbr", Flows: 30, PacketSizeBytes: 512, RatePps: 4, MeanLifeSeconds: 60},
	}
}

// named lists the built-in specs reachable by name through Resolve.
var named = map[string]func() *ScenarioSpec{
	"paper-default": PaperDefault,
}

// NamedSpecs returns the built-in spec names, sorted.
func NamedSpecs() []string {
	names := make([]string, 0, len(named))
	for n := range named {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// Parse decodes and validates one spec document. Unknown fields, trailing
// data and a key no model or protocol of the spec has in any of its
// parameter maps are errors: a typoed knob must not silently fall back to
// a default.
func Parse(data []byte) (*ScenarioSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s ScenarioSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	// Decode stops after one value; anything but whitespace after it (a
	// second object, a stray brace) would otherwise be silently ignored.
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("spec: trailing data after the spec object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and validates a spec file.
func Load(path string) (*ScenarioSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Resolve loads the spec at a path, or a built-in by name when no file
// exists there: "-spec paper-default" works without a file on disk.
func Resolve(arg string) (*ScenarioSpec, error) {
	if mk, ok := named[arg]; ok {
		if _, err := os.Stat(arg); err != nil {
			return mk(), nil
		}
	}
	s, err := Load(arg)
	if err != nil && !strings.ContainsAny(arg, "/.") {
		return nil, fmt.Errorf("%w (built-in specs: %v)", err, NamedSpecs())
	}
	return s, err
}

// Validate checks structural invariants and resolves every model name
// against its registry, so a bad spec fails before any simulator exists.
func (s *ScenarioSpec) Validate() error {
	_, err := s.Params()
	return err
}

// ValidateParams is the one statement of what a runnable scenario is: the
// rules every spec passes at load time, applied to resolved parameters so
// that values arriving another way (cmd/slrsim's flags overlaid on a
// spec) are refused exactly as the same values in a spec file would be.
// It also dry-builds the models, so parameter errors (an unknown key, a
// bad block_m, a negative sigma) surface before any simulator exists, and
// checks the radio channel a trial would build (radio.Validate), so a
// scenario that passes never panics in it.
func ValidateParams(p scenario.Params) error {
	if p.Nodes < 2 {
		return fmt.Errorf("spec: nodes %d must be >= 2", p.Nodes)
	}
	if p.Nodes > math.MaxInt32 {
		return fmt.Errorf("spec: nodes %d exceeds %d: SRP stores node ids in 32 bits", p.Nodes, math.MaxInt32)
	}
	if p.Terrain.Width <= 0 || p.Terrain.Height <= 0 {
		return fmt.Errorf("spec: terrain %vx%v must be positive", p.Terrain.Width, p.Terrain.Height)
	}
	if p.Duration <= 0 {
		return fmt.Errorf("spec: duration_seconds %v must be positive", p.Duration.Seconds())
	}
	if p.Range <= 0 {
		return fmt.Errorf("spec: radio range_m %v must be positive", p.Range)
	}
	if err := routing.Validate(routing.Spec{Name: string(p.Protocol), Params: p.ProtoParams}); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if mob := p.Mobility; mob.MaxSpeed < mob.MinSpeed || mob.MinSpeed < 0 || mob.Pause < 0 {
		return fmt.Errorf("spec: mobility speeds [%v, %v] or pause_seconds %v invalid", mob.MinSpeed, mob.MaxSpeed, mob.Pause.Seconds())
	}
	if p.Traffic.Flows <= 0 || p.Traffic.Rate <= 0 || p.Traffic.PacketSize <= 0 || p.Traffic.MeanLife <= 0 {
		return fmt.Errorf("spec: traffic flows=%d rate_pps=%v packet_size_bytes=%d mean_life_seconds=%v must all be positive",
			p.Traffic.Flows, p.Traffic.Rate, p.Traffic.PacketSize, p.Traffic.MeanLife.Seconds())
	}
	// IP's length field bounds a packet; far larger sizes overflow the
	// channel's air time.
	if p.Traffic.PacketSize > math.MaxUint16 {
		return fmt.Errorf("spec: traffic packet_size_bytes %d exceeds %d, an IP datagram's largest", p.Traffic.PacketSize, math.MaxUint16)
	}
	if _, err := mobility.Build(p.Terrain, nullRng(), p.Mobility); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if _, err := traffic.NewPacer(p.Traffic); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if err := radio.Validate(p.RadioParams()); err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	return nil
}

// Params resolves the spec into runnable scenario parameters, refusing
// what Validate refuses.
func (s *ScenarioSpec) Params() (scenario.Params, error) {
	if s.Version != Version {
		return scenario.Params{}, fmt.Errorf("spec: version %d unsupported (want %d)", s.Version, Version)
	}
	if s.Trials < 0 {
		return scenario.Params{}, fmt.Errorf("spec: trials %d must be >= 0", s.Trials)
	}
	var span [3]sim.Time
	for i, v := range [...]float64{s.DurationSeconds, s.Mobility.PauseSeconds, s.Traffic.MeanLifeSeconds} {
		var err error
		if span[i], err = sim.Seconds(v); err != nil {
			return scenario.Params{}, fmt.Errorf("spec: %s %w", [...]string{"duration_seconds", "pause_seconds", "mean_life_seconds"}[i], err)
		}
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	p := scenario.Params{
		Protocol:    scenario.ProtocolName(strings.ToUpper(s.Protocol)),
		ProtoParams: s.ProtocolParams,
		Nodes:       s.Nodes,
		Terrain:     geo.Terrain{Width: s.Terrain.WidthM, Height: s.Terrain.HeightM},
		Range:       s.Radio.RangeM,
		Duration:    span[0],
		Seed:        seed,
		Traffic: traffic.Params{
			Flows:       s.Traffic.Flows,
			PacketSize:  s.Traffic.PacketSizeBytes,
			Rate:        s.Traffic.RatePps,
			MeanLife:    span[2],
			Model:       s.Traffic.Model,
			ModelParams: s.Traffic.Params,
		},
		Mobility: mobility.Spec{
			Model:    s.Mobility.Model,
			MinSpeed: s.Mobility.MinSpeedMps,
			MaxSpeed: s.Mobility.MaxSpeedMps,
			Pause:    span[1],
			Params:   s.Mobility.Params,
		},
		Propagation: radio.PropSpec{
			Model:  s.Radio.Propagation,
			Params: s.Radio.Params,
		},
		CheckInvariants: s.CheckInvariants,
	}
	return p, ValidateParams(p)
}

// Duration returns the spec's simulated run time; 0 if Validate refuses
// its duration_seconds.
func (s *ScenarioSpec) Duration() sim.Time {
	d, _ := sim.Seconds(s.DurationSeconds)
	return d
}

// TrialCount returns the spec's trial count with its default applied.
func (s *ScenarioSpec) TrialCount() int {
	if s.Trials <= 0 {
		return 1
	}
	return s.Trials
}

// nullRng is a throwaway deterministic rng for dry-building models during
// validation.
func nullRng() *rand.Rand { return sim.NewRand(1) }
