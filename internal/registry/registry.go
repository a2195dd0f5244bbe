// Package registry is the tiny generic name-to-factory registry shared by
// the pluggable model families (mobility models, traffic pacers, radio
// propagation). One implementation means one behavior everywhere:
// duplicate registration panics, name listings are sorted, and
// model-specific parameter maps resolve through a single accessor.
package registry

import (
	"fmt"
	"maps"
	"slices"
	"sort"
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

// Param returns params[name], or def when the key is absent — the shared
// accessor for model-specific parameter maps, where missing knobs take
// the model's documented defaults.
func Param(params map[string]float64, name string, def float64) float64 {
	if v, ok := params[name]; ok {
		return v
	}
	return def
}

// ApplyParams returns cfg with params applied: it walks params in sorted
// key order, invoking the matching applier for each entry. A key with no
// applier is an error naming the known keys — a typoed knob must fail
// loudly, never silently fall back to a default. It is the shared override
// mechanism for model families whose parameter set is fixed and validated
// (routing protocol configs), as opposed to Param's open accessor for
// optional knobs. apply is the family's package-level table, so a call
// builds no closures, and one without params allocates nothing.
func ApplyParams[C any](kind string, params map[string]float64, apply map[string]func(*C, float64), cfg C) (C, error) {
	if len(params) == 0 {
		return cfg, nil
	}
	// Copy to the heap only here: taking &cfg would move cfg to the heap
	// on every call.
	c := new(C)
	*c = cfg
	for _, k := range slices.Sorted(maps.Keys(params)) {
		f, ok := apply[k]
		if !ok {
			return cfg, fmt.Errorf("%s: unknown parameter %q (known: %v)", kind, k, slices.Sorted(maps.Keys(apply)))
		}
		f(c, params[k])
	}
	return *c, nil
}
