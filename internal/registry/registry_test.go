package registry

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"slr/internal/sim"
)

func TestRegistryBasics(t *testing.T) {
	r := New[int]("test model")
	r.Register("b", 2)
	r.Register("a", 1)
	if got := r.Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Names() = %v", got)
	}
	if v, ok := r.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	if _, ok := r.Get("c"); ok {
		t.Fatal("Get(c) found an unregistered entry")
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := New[int]("test model")
	r.Register("a", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	r.Register("a", 2)
}

type knobs struct {
	gain  float64
	count int
	on    bool
}

var knobAppliers = map[string]Applier[knobs]{
	"gain":  Real(func(k *knobs, v float64) { k.gain = v }),
	"count": Int(func(k *knobs, v int) { k.count = v }),
	"on":    Bool(func(k *knobs, v bool) { k.on = v }),
}

// TestApplyParams pins the one reader of spec parameter maps: known keys
// set their fields and missing ones keep the defaults; an unknown key or a
// value of the wrong kind is refused by name, the first bad key in sorted
// order however the map iterates; a model without parameters refuses any
// key.
func TestApplyParams(t *testing.T) {
	def := knobs{gain: 1, count: 2}
	got, err := ApplyParams("test", map[string]float64{"gain": 0.5, "on": 1}, knobAppliers, def)
	if err != nil || got != (knobs{gain: 0.5, count: 2, on: true}) {
		t.Fatalf("ApplyParams = %+v, %v", got, err)
	}
	if got, err := ApplyParams("test", nil, knobAppliers, def); err != nil || got != def {
		t.Fatalf("ApplyParams(nil) = %+v, %v", got, err)
	}
	for _, c := range []struct {
		params map[string]float64
		want   string
	}{
		{map[string]float64{"gian": 2}, `test: unknown parameter "gian" (known: [count gain on])`},
		{map[string]float64{"count": 2.5}, `test: parameter "count" is 2.5, want an integer`},
		{map[string]float64{"on": 2}, `test: parameter "on" is 2, want 0 or 1`},
		{map[string]float64{"gain": math.NaN()}, `test: parameter "gain" is NaN, want a finite number`},
		{map[string]float64{"zz": 1, "count": 0.5, "gain": 3, "aa": 1}, `test: unknown parameter "aa" (known: [count gain on])`},
		{map[string]float64{"on": 3, "gain": 3, "count": 0.5}, `test: parameter "count" is 0.5, want an integer`},
	} {
		for range 20 { // map order varies between iterations; the error must not
			if _, err := ApplyParams("test", c.params, knobAppliers, def); err == nil || err.Error() != c.want {
				t.Fatalf("ApplyParams(%v) error = %v, want %s", c.params, err, c.want)
			}
		}
	}
	if err := NoParams("bare", nil); err != nil {
		t.Fatalf("NoParams(nil) = %v", err)
	}
	if err := NoParams("bare", map[string]float64{"x": 1}); err == nil || err.Error() != `bare: unknown parameter "x" (known: [])` {
		t.Fatalf("NoParams(x) = %v", err)
	}
}

// timers has one parameter of each seconds applier.
type timers struct {
	hold   sim.Time
	period float64
}

var timerAppliers = map[string]Applier[timers]{
	"hold_seconds":   Seconds(func(k *timers, v sim.Time) { k.hold = v }),
	"period_seconds": SecondsAsGiven(func(k *timers, v float64) { k.period = v }),
}

// TestSecondsAppliers pins the seconds kind: Seconds sets the span
// sim.Seconds converts, SecondsAsGiven the value as given, and both refuse
// by name a value sim.Seconds refuses, quoting sim.MaxSpan as the bound.
func TestSecondsAppliers(t *testing.T) {
	got, err := ApplyParams("test", map[string]float64{"hold_seconds": 2.5, "period_seconds": 0.3}, timerAppliers, timers{})
	if err != nil || got != (timers{2500 * time.Millisecond, 0.3}) {
		t.Fatalf("ApplyParams = %+v, %v", got, err)
	}
	bound := fmt.Sprintf("want seconds in [0, %.3f]", sim.MaxSpan.Seconds())
	for _, c := range []struct {
		key string
		v   float64
	}{
		{"hold_seconds", -0.001}, {"hold_seconds", 1e12}, {"hold_seconds", math.Inf(1)},
		{"period_seconds", math.NaN()}, {"period_seconds", 5e9},
	} {
		want := fmt.Sprintf("test: parameter %q is %v, %s", c.key, c.v, bound)
		if _, err := ApplyParams("test", map[string]float64{c.key: c.v}, timerAppliers, timers{}); err == nil || err.Error() != want {
			t.Errorf("%s=%v: error %v, want %s", c.key, c.v, err, want)
		}
	}
}

// TestApplyParamsAllocs pins the success path's cost: nothing without
// params, and only the config copy with them, however many keys are set.
func TestApplyParamsAllocs(t *testing.T) {
	def := knobs{gain: 1}
	for _, params := range []map[string]float64{nil, {"gain": 2}, {"gain": 2, "count": 3, "on": 1}} {
		want := 1.0
		if params == nil {
			want = 0
		}
		if avg := testing.AllocsPerRun(100, func() { _, _ = ApplyParams("test", params, knobAppliers, def) }); avg != want {
			t.Errorf("ApplyParams(%v) allocates %v times, want %v", params, avg, want)
		}
	}
}
