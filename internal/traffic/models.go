package traffic

import (
	"fmt"
	"math/rand"
	"time"

	"slr/internal/registry"
	"slr/internal/sim"
)

// Pacer yields successive inter-packet gaps for one flow. A fresh Pacer is
// built per flow, so stateful models (on/off bursts) carry per-flow state.
// All randomness must come from the rng passed to Next so a scenario seed
// fully determines the packet schedule.
type Pacer interface {
	Next(rng *rand.Rand) sim.Time
}

// PacerFactory builds a Pacer for one flow from the workload parameters.
type PacerFactory func(p Params) (Pacer, error)

var pacerFactories = registry.New[PacerFactory]("traffic model")

// RegisterModel adds a traffic model under name. Registering a duplicate
// name panics: it is a wiring bug.
func RegisterModel(name string, f PacerFactory) { pacerFactories.Register(name, f) }

// Models returns the registered traffic model names, sorted.
func Models() []string { return pacerFactories.Names() }

// NewPacer builds a pacer for one flow of p. An empty model name selects
// "cbr", the paper's workload. It refuses a rate whose packet interval is
// not a span (sim.Seconds of 1/rate_pps) or rounds to 0 ns, where a flow
// would reschedule its tick at the same instant forever.
func NewPacer(p Params) (Pacer, error) {
	name := p.Model
	if name == "" {
		name = "cbr"
	}
	f, ok := pacerFactories.Get(name)
	if !ok {
		return nil, fmt.Errorf("traffic: unknown model %q (registered: %v)", name, Models())
	}
	if _, err := sim.Seconds(1 / p.Rate); err != nil || interval(p.Rate) < 1 {
		return nil, fmt.Errorf("traffic: rate_pps %v gives a packet interval outside [1ns, %v]", p.Rate, sim.MaxSpan)
	}
	return f(p)
}

// interval is the packet interval at rate packets per second.
func interval(rate float64) sim.Time { return sim.Span(float64(time.Second) / rate) }

// cbrPacer emits packets at a constant interval: the paper's CBR flows.
// It draws nothing from the rng, so runs that predate the model registry
// replay byte-identically.
type cbrPacer struct {
	interval sim.Time
}

func (c cbrPacer) Next(*rand.Rand) sim.Time { return c.interval }

// poissonPacer emits packets as a Poisson process with the configured mean
// rate: exponential inter-arrival gaps, the classic open-loop telephony
// workload.
type poissonPacer struct {
	mean float64 // mean gap in seconds
}

func (p poissonPacer) Next(rng *rand.Rand) sim.Time {
	return sim.Span(rng.ExpFloat64() * p.mean * float64(time.Second))
}

// onoffPacer is a bursty on/off source: CBR at the configured rate during
// exponentially distributed ON periods (mean "on_mean_seconds", default 1),
// silent during exponentially distributed OFF periods (mean
// "off_mean_seconds", default 1). The long-run average rate is therefore
// Rate * on/(on+off), with packets arriving in bursts that stress MAC
// queues far harder than CBR at the same average.
type onoffPacer struct {
	interval sim.Time
	onMean   float64 // seconds
	offMean  float64 // seconds
	onLeft   sim.Time
}

// onoffAppliers are onoff's Params.ModelParams keys.
var onoffAppliers = map[string]registry.Applier[onoffPacer]{
	"on_mean_seconds":  registry.SecondsAsGiven(func(o *onoffPacer, v float64) { o.onMean = v }),
	"off_mean_seconds": registry.SecondsAsGiven(func(o *onoffPacer, v float64) { o.offMean = v }),
}

func (o *onoffPacer) Next(rng *rand.Rand) sim.Time {
	if o.onLeft <= 0 {
		o.onLeft = sim.Span(rng.ExpFloat64() * o.onMean * float64(time.Second))
	}
	gap := o.interval
	o.onLeft -= o.interval
	if o.onLeft <= 0 {
		gap = min(gap+sim.Span(rng.ExpFloat64()*o.offMean*float64(time.Second)), sim.MaxSpan)
	}
	return gap
}

func init() {
	RegisterModel("cbr", func(p Params) (Pacer, error) {
		if err := registry.NoParams("traffic: cbr", p.ModelParams); err != nil {
			return nil, err
		}
		return cbrPacer{interval: interval(p.Rate)}, nil
	})
	RegisterModel("poisson", func(p Params) (Pacer, error) {
		if err := registry.NoParams("traffic: poisson", p.ModelParams); err != nil {
			return nil, err
		}
		return poissonPacer{mean: 1 / p.Rate}, nil
	})
	RegisterModel("onoff", func(p Params) (Pacer, error) {
		o, err := registry.ApplyParams("traffic: onoff", p.ModelParams, onoffAppliers,
			onoffPacer{interval: interval(p.Rate), onMean: 1, offMean: 1})
		if err != nil {
			return nil, err
		}
		if o.onMean <= 0 || o.offMean <= 0 {
			return nil, fmt.Errorf("traffic: onoff periods on=%v off=%v must be positive", o.onMean, o.offMean)
		}
		return &o, nil
	})
}
