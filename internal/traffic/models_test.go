package traffic

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"slr/internal/netstack"
	"slr/internal/sim"
)

// sink collects generated packets; it satisfies Sender.
type sink struct {
	id  netstack.NodeID
	got []sim.Time
	s   *sim.Simulator
}

func (k *sink) ID() netstack.NodeID { return k.id }
func (k *sink) SendData(*netstack.DataPacket) {
	k.got = append(k.got, k.s.Now())
}

// runModel drives one generator of the named model for dur and returns
// every packet send time across all nodes.
func runModel(t *testing.T, model string, params map[string]float64, seed int64, dur sim.Time) []sim.Time {
	t.Helper()
	s := sim.New(seed)
	nodes := make([]Sender, 4)
	sinks := make([]*sink, 4)
	for i := range nodes {
		sinks[i] = &sink{id: netstack.NodeID(i), s: s}
		nodes[i] = sinks[i]
	}
	p := paperParams()
	p.Flows = 5
	p.Model = model
	p.ModelParams = params
	g := NewGenerator(s, rand.New(rand.NewSource(seed)), nodes, p, dur)
	g.Start()
	s.RunUntil(dur)
	var all []sim.Time
	for _, k := range sinks {
		all = append(all, k.got...)
	}
	return all
}

// TestModelsRegistered verifies the three built-in pacing models resolve.
func TestModelsRegistered(t *testing.T) {
	want := []string{"cbr", "onoff", "poisson"}
	if got := Models(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Models() = %v, want %v", got, want)
	}
}

// TestEmptyModelIsCBR verifies the zero Params.Model selects the paper's
// constant-bit-rate pacer.
func TestEmptyModelIsCBR(t *testing.T) {
	p := paperParams()
	pacer, err := NewPacer(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	want := sim.Time(float64(time.Second) / p.Rate)
	for i := 0; i < 5; i++ {
		if got := pacer.Next(rng); got != want {
			t.Fatalf("cbr gap %v, want constant %v", got, want)
		}
	}
}

// TestUnknownModelErrors verifies NewPacer rejects unregistered names.
func TestUnknownModelErrors(t *testing.T) {
	p := paperParams()
	p.Model = "torrent"
	if _, err := NewPacer(p); err == nil {
		t.Fatal("NewPacer accepted unknown model")
	}
}

// TestModelsGenerateAndReplay verifies every registered model produces
// packets at roughly the configured order of magnitude and replays the
// exact same schedule for the same seed.
func TestModelsGenerateAndReplay(t *testing.T) {
	const dur = 60 * time.Second
	for _, model := range Models() {
		t.Run(model, func(t *testing.T) {
			a := runModel(t, model, nil, 3, dur)
			b := runModel(t, model, nil, 3, dur)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed produced different schedules (%d vs %d packets)", len(a), len(b))
			}
			// 5 flows x 4 pps x 60 s = 1200 packet opportunities; every
			// model should land within a broad factor of that (onoff
			// halves it with the default 1 s / 1 s duty cycle).
			if len(a) < 200 || len(a) > 2400 {
				t.Fatalf("model generated %d packets in %v, outside sane range", len(a), dur)
			}
		})
	}
}

// TestPoissonGapsVary verifies poisson is not constant-rate.
func TestPoissonGapsVary(t *testing.T) {
	p := paperParams()
	p.Model = "poisson"
	pacer, err := NewPacer(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	first := pacer.Next(rng)
	for i := 0; i < 16; i++ {
		if pacer.Next(rng) != first {
			return
		}
	}
	t.Fatal("16 identical poisson gaps")
}

// TestOnOffBursts verifies the on/off pacer emits CBR-spaced packets
// inside bursts and longer silences between them.
func TestOnOffBursts(t *testing.T) {
	p := paperParams()
	p.Model = "onoff"
	p.ModelParams = map[string]float64{"on_mean_seconds": 2, "off_mean_seconds": 5}
	pacer, err := NewPacer(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	interval := sim.Time(float64(time.Second) / p.Rate)
	inBurst, silences := 0, 0
	for i := 0; i < 200; i++ {
		gap := pacer.Next(rng)
		if gap == interval {
			inBurst++
		} else if gap > interval {
			silences++
		} else {
			t.Fatalf("gap %v shorter than the CBR interval %v", gap, interval)
		}
	}
	if inBurst == 0 || silences == 0 {
		t.Fatalf("want both burst gaps and silences, got %d/%d", inBurst, silences)
	}
}

// TestGeneratorPanicsOnBadModel verifies wiring bugs surface at
// construction time.
func TestGeneratorPanicsOnBadModel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGenerator accepted unknown model")
		}
	}()
	p := paperParams()
	p.Model = "torrent"
	NewGenerator(sim.New(1), rand.New(rand.NewSource(1)), nil, p, time.Second)
}

// largest returns the largest value sim.Seconds admits of f(v) as v
// steps down from start.
func largest(start float64, f func(float64) float64) float64 {
	v := start
	for {
		if _, err := sim.Seconds(f(v)); err == nil {
			return v
		}
		v = math.Nextafter(v, 0)
	}
}

// TestDrawsStayInSpan draws poisson and onoff gaps, and flow lifetimes,
// at the largest means the checked conversion admits: every gap must lie
// in [0, sim.MaxSpan] and every flow must send before it stops. Converted
// without saturation, an exponential draw past twice the mean wraps
// sim.Time negative and the kernel panics on the schedule.
func TestDrawsStayInSpan(t *testing.T) {
	id := func(v float64) float64 { return v }
	top := largest(sim.MaxSpan.Seconds(), id)
	// The smallest rate whose packet interval, 1/rate seconds, is a span.
	slowest := 1 / largest(top, func(v float64) float64 { return 1 / (1 / v) })
	for _, c := range []struct {
		model  string
		rate   float64
		params map[string]float64
	}{
		{"poisson", slowest, nil},
		// A nanosecond ON period ends at every packet, so every gap
		// carries an OFF draw on top of the longest interval.
		{"onoff", slowest, map[string]float64{"on_mean_seconds": 1e-9, "off_mean_seconds": top}},
		{"onoff", 4, map[string]float64{"on_mean_seconds": top, "off_mean_seconds": top}},
	} {
		p := paperParams()
		p.Model, p.Rate, p.ModelParams = c.model, c.rate, c.params
		pacer, err := NewPacer(p)
		if err != nil {
			t.Fatalf("%s at rate %v %v: %v", c.model, c.rate, c.params, err)
		}
		rng := sim.NewRand(1)
		for i := 0; i < 1000; i++ {
			if gap := pacer.Next(rng); gap < 0 || gap > sim.MaxSpan {
				t.Fatalf("%s at rate %v %v: gap %d outside [0, %d]", c.model, c.rate, c.params, gap, sim.MaxSpan)
			}
		}
	}

	// A flow whose lifetime wrapped negative would stop before its first
	// tick and leave its id without a packet.
	p := paperParams()
	var err error
	if p.MeanLife, err = sim.Seconds(top); err != nil {
		t.Fatal(err)
	}
	s, senders, ifaces := build(4)
	g := NewGenerator(s, sim.NewRand(1), ifaces, p, sim.MaxSpan)
	g.Start()
	s.RunUntil(2 * time.Second)
	sent := map[uint32]bool{}
	for _, k := range senders {
		for _, pkt := range k.pkts {
			sent[pkt.Flow] = true
		}
	}
	for f := uint32(1); f <= g.flowSeq; f++ {
		if !sent[f] {
			t.Fatalf("flow %d of %d sent nothing: it stopped before it started", f, g.flowSeq)
		}
	}
}
