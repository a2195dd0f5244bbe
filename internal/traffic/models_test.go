package traffic

import (
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
