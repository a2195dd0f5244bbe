// Package routing is the protocol registry: the five protocols of the
// paper's evaluation (SRP and its four baselines) registered by name with
// validated per-protocol parameter maps, exactly like the mobility,
// traffic, and radio-propagation model registries. internal/spec checks
// a protocol through Validate and a trial builds its nodes through
// Resolve, so a declarative scenario file can both name the protocol and
// tune its constants ("protocol_params") without any code knowing the
// concrete type — protocol-parameter sweeps are just spec files.
//
// Registration is centralized here rather than in per-protocol init
// functions so importing slr/internal/routing is sufficient to see every
// protocol; nothing needs blank imports.
package routing

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"slr/internal/netstack"
	"slr/internal/registry"
	"slr/internal/routing/aodv"
	"slr/internal/routing/dsr"
	"slr/internal/routing/ldr"
	"slr/internal/routing/olsr"
	"slr/internal/routing/srp"
)

// Spec selects a registered protocol by name and carries its parameter
// overrides. It is the protocol section of a declarative scenario spec.
type Spec struct {
	// Name names a registered protocol: "SRP", "LDR", "AODV", "DSR",
	// "OLSR" (case-insensitive).
	Name string
	// Params carries protocol-specific tuning knobs in spec units
	// (durations in seconds, booleans as 0/1); missing keys take the
	// protocol's published defaults, unknown keys are errors.
	Params map[string]float64
}

// Factory builds one node's protocol instance from the spec's parameter
// overrides. Each call must return a fresh instance: protocol state is
// strictly per node.
type Factory func(params map[string]float64) (netstack.Protocol, error)

// resolver configures and validates a protocol from a spec's parameter
// overrides once, and returns the builder of its node instances.
type resolver func(params map[string]float64) (func() netstack.Protocol, error)

var resolvers = registry.New[resolver]("routing protocol")

// Register adds a protocol factory under name. Registering a duplicate
// name panics: it is a wiring bug. Resolve checks a factory's params by
// building one instance and then calls the factory once per node.
func Register(name string, f Factory) {
	resolvers.Register(name, func(params map[string]float64) (func() netstack.Protocol, error) {
		if _, err := f(params); err != nil {
			return nil, err
		}
		return func() netstack.Protocol {
			p, err := f(params)
			if err != nil {
				panic(fmt.Sprintf("routing: %v after the same params resolved", err))
			}
			return p
		}, nil
	})
}

// Protocols returns the registered protocol names, sorted.
func Protocols() []string { return resolvers.Names() }

// Resolve configures and validates the protocol selected by s once, and
// returns a builder whose every call makes a fresh node instance. A trial
// resolves its protocol once and its nodes share the one config: the
// builder's instances all point at it, and nothing writes it. The config
// lives in the builder, so concurrent trials never share one.
func Resolve(s Spec) (func() netstack.Protocol, error) {
	r, ok := resolvers.Get(strings.ToUpper(s.Name))
	if !ok {
		return nil, fmt.Errorf("routing: unknown protocol %q (registered: %v)", s.Name, Protocols())
	}
	return r(s.Params)
}

// Build constructs one node's instance of the protocol selected by s.
func Build(s Spec) (netstack.Protocol, error) {
	build, err := Resolve(s)
	if err != nil {
		return nil, err
	}
	return build(), nil
}

// Validate checks that s names a registered protocol and that its params
// resolve to a buildable configuration — the spec-load-time check that
// makes a bad scenario fail before any simulator exists.
func Validate(s Spec) error {
	_, err := Resolve(s)
	return err
}

// ParamsFlag is a flag.Value collecting repeated "name=value" protocol
// parameter overrides — the CLI form of a spec's protocol_params map,
// shared by cmd/slrsim and cmd/experiments (-pparam).
type ParamsFlag map[string]float64

// String renders the collected overrides in sorted key order.
func (f ParamsFlag) String() string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, f[k]) //slrlint:allow floatfmt flag display round-trips Set's parse; shortest form is the natural rendering
	}
	return strings.Join(parts, ",")
}

// Set parses one "name=value" pair.
func (f ParamsFlag) Set(s string) error {
	name, val, ok := strings.Cut(s, "=")
	if !ok {
		return fmt.Errorf("want name=value, got %q", s)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return fmt.Errorf("parameter %s: %w", name, err)
	}
	f[name] = v
	return nil
}

// MergeParams overlays override onto base without mutating either,
// returning the combined map (or base itself when there is nothing to
// overlay).
func MergeParams(base, override map[string]float64) map[string]float64 {
	if len(override) == 0 {
		return base
	}
	merged := make(map[string]float64, len(base)+len(override))
	for k, v := range base {
		merged[k] = v
	}
	for k, v := range override {
		merged[k] = v
	}
	return merged
}

// register adds the protocol whose config configure reads from a spec's
// protocol_params and whose node instances build makes, all sharing that
// one config.
func register[C any, P netstack.Protocol](name string, configure func(map[string]float64) (C, error), build func(*C) P) {
	resolvers.Register(name, func(params map[string]float64) (func() netstack.Protocol, error) {
		cfg, err := configure(params)
		if err != nil {
			return nil, err
		}
		return func() netstack.Protocol { return build(&cfg) }, nil
	})
}

func init() {
	register("SRP", srp.ConfigFromParams, srp.New)
	register("LDR", ldr.ConfigFromParams, ldr.New)
	register("AODV", aodv.ConfigFromParams, aodv.New)
	register("DSR", dsr.ConfigFromParams, dsr.New)
	// OLSR runs at the draft's default timing and takes no parameters.
	register("OLSR",
		func(params map[string]float64) (struct{}, error) {
			return struct{}{}, registry.NoParams("olsr", params)
		},
		func(*struct{}) *olsr.Protocol { return olsr.New() })
}
