// Package registry is the tiny generic name-to-factory registry shared by
// the pluggable model families (mobility models, traffic pacers, radio
// propagation, routing protocols). One implementation means one behavior
// everywhere: duplicate registration panics, name listings are sorted,
// and every parameter map a spec carries is read by ApplyParams against
// its model's fixed vocabulary, so an unknown key or a value of the wrong
// kind is an error in every family alike.
package registry

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"slr/internal/sim"
)

// Registry maps model names to factories for one model family. The zero
// value is not usable; call New.
type Registry[T any] struct {
	kind string
	m    map[string]T
}

// New returns an empty registry; kind names the family in panic messages
// (e.g. "mobility model").
func New[T any](kind string) *Registry[T] {
	return &Registry[T]{kind: kind, m: make(map[string]T)}
}

// Register adds v under name. Registering a duplicate name panics: it is
// a wiring bug.
func (r *Registry[T]) Register(name string, v T) {
	if _, dup := r.m[name]; dup {
		panic(fmt.Sprintf("%s %q registered twice", r.kind, name))
	}
	r.m[name] = v
}

// Names returns the registered names, sorted.
func (r *Registry[T]) Names() []string {
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Get returns the entry registered under name.
func (r *Registry[T]) Get(name string) (T, bool) {
	v, ok := r.m[name]
	return v, ok
}

// paramKind says which spec-level values a parameter accepts.
type paramKind uint8

const (
	real    paramKind = iota // any finite value
	integer                  // an integer a float64 holds exactly, |v| <= 2^53
	boolean                  // exactly 0 or 1
	seconds                  // seconds sim.Seconds converts
)

// accepts reports whether v is a value of kind k; NaN and ±Inf are values
// of no kind.
func (k paramKind) accepts(v float64) bool {
	switch k {
	case integer:
		return v == math.Trunc(v) && math.Abs(v) <= 1<<53
	case boolean:
		return v == 0 || v == 1
	case seconds:
		_, err := sim.Seconds(v)
		return err == nil
	}
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

func (k paramKind) String() string {
	return [...]string{real: "a finite number", integer: "an integer", boolean: "0 or 1", seconds: "seconds in [0, 4611686018.427]"}[k]
}

// Applier sets one parameter of a config C; the constructors below build
// one. ApplyParams refuses a value of the wrong kind before the setter
// runs, so no setter truncates or rounds.
type Applier[C any] struct {
	kind paramKind
	set  func(*C, float64)
}

// Real is the applier of a parameter that takes any finite value.
func Real[C any](set func(*C, float64)) Applier[C] { return Applier[C]{real, set} }

// Int is the applier of a parameter that takes an integer.
func Int[C any](set func(*C, int)) Applier[C] {
	return Applier[C]{integer, func(c *C, v float64) { set(c, int(v)) }}
}

// Bool is the applier of a parameter that takes 0 (false) or 1 (true).
func Bool[C any](set func(*C, bool)) Applier[C] {
	return Applier[C]{boolean, func(c *C, v float64) { set(c, v == 1) }}
}

// Seconds is the applier of a parameter in seconds: set gets sim.Seconds(v).
func Seconds[C any](set func(*C, sim.Time)) Applier[C] {
	return Applier[C]{seconds, func(c *C, v float64) {
		t, _ := sim.Seconds(v)
		set(c, t)
	}}
}

// SecondsAsGiven is Seconds for a mean a draw scales: set gets v as given.
func SecondsAsGiven[C any](set func(*C, float64)) Applier[C] { return Applier[C]{seconds, set} }

// ApplyParams returns cfg with params applied: each entry runs the applier
// its key names. A key with no applier, or a value its applier's kind
// refuses, is an error — a typoed knob or a fractional count must fail
// loudly, never silently fall back to a default or truncate. It is the one
// reader of every parameter map a spec carries: a model's or protocol's
// keys are exactly its table's, and a missing key leaves cfg's default.
//
// apply is the family's package-level table, so a call builds no closures;
// one without params allocates nothing, and one with params allocates only
// the copy its setters write. The appliers set distinct fields, so the
// order params are applied in does not matter; the error names the first
// bad key in sorted order, whatever order the map iterates in.
func ApplyParams[C any](kind string, params map[string]float64, apply map[string]Applier[C], cfg C) (C, error) {
	if len(params) == 0 {
		return cfg, nil
	}
	// Copy to the heap only here: taking &cfg would move cfg to the heap
	// on every call.
	c := new(C)
	*c = cfg
	for k, v := range params {
		a, ok := apply[k]
		if !ok || !a.kind.accepts(v) {
			return cfg, paramError(kind, params, apply)
		}
		a.set(c, v)
	}
	return *c, nil
}

// paramError words ApplyParams' refusal of params: the first key in sorted
// order that apply does not know or whose value its kind refuses.
func paramError[C any](kind string, params map[string]float64, apply map[string]Applier[C]) error {
	for _, k := range slices.Sorted(maps.Keys(params)) {
		a, ok := apply[k]
		if !ok {
			return fmt.Errorf("%s: unknown parameter %q (known: %v)", kind, k, slices.Sorted(maps.Keys(apply)))
		}
		if v := params[k]; !a.kind.accepts(v) {
			return fmt.Errorf("%s: parameter %q is %v, want %v", kind, k, v, a.kind)
		}
	}
	panic("registry: paramError called on params ApplyParams accepts")
}

// NoParams is ApplyParams for a model that has no parameters: every key
// is unknown.
func NoParams(kind string, params map[string]float64) error {
	_, err := ApplyParams[struct{}](kind, params, nil, struct{}{})
	return err
}
