package radio

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
	"unsafe"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/sim"
)

// recorder records the frames a station decodes, then runs on if set —
// which may transmit synchronously, the way the MAC answers a frame.
type recorder struct {
	frames []*Frame
	on     func(f *Frame)
}

func (r *recorder) OnFrame(f *Frame) {
	r.frames = append(r.frames, f)
	if r.on != nil {
		r.on(f)
	}
}

// build places stations at the given x coordinates (y = 0) on a channel
// with 100 m range.
func build(t *testing.T, xs ...float64) (*sim.Simulator, *Channel, []*recorder) {
	t.Helper()
	s := sim.New(1)
	p := DefaultParams()
	p.Range = 100
	ch := NewChannel(s, p)
	recs := make([]*recorder, len(xs))
	for i, x := range xs {
		recs[i] = &recorder{}
		ch.Register(NodeID(i), &mobility.Static{At: geo.Point{X: x}}, recs[i])
	}
	return s, ch, recs
}

func TestUnicastInRange(t *testing.T) {
	s, ch, recs := build(t, 0, 50, 250)
	ch.Transmit(&Frame{From: 0, To: 1, Kind: Data, Size: 100})
	s.Run()
	if len(recs[1].frames) != 1 {
		t.Fatalf("node 1 got %d frames, want 1", len(recs[1].frames))
	}
	// Node 2 is out of range (250 > 100) and hears nothing.
	if len(recs[2].frames) != 0 {
		t.Fatalf("node 2 got %d frames, want 0", len(recs[2].frames))
	}
	// Sender does not hear itself.
	if len(recs[0].frames) != 0 {
		t.Fatalf("node 0 got %d frames, want 0", len(recs[0].frames))
	}
}

func TestOverhearing(t *testing.T) {
	// All frames in range are decodable, even if addressed elsewhere;
	// filtering is the MAC's job.
	s, ch, recs := build(t, 0, 50, 90)
	ch.Transmit(&Frame{From: 0, To: 1, Kind: Data, Size: 100})
	s.Run()
	if len(recs[2].frames) != 1 {
		t.Fatalf("node 2 overheard %d frames, want 1", len(recs[2].frames))
	}
}

func TestCollisionAtReceiver(t *testing.T) {
	// Hidden terminal: 0 and 2 cannot hear each other but both reach 1.
	s, ch, recs := build(t, 0, 90, 180)
	ch.Transmit(&Frame{From: 0, To: 1, Kind: Data, Size: 100})
	ch.Transmit(&Frame{From: 2, To: 1, Kind: Data, Size: 100})
	s.Run()
	if len(recs[1].frames) != 0 {
		t.Fatalf("node 1 decoded %d frames during collision, want 0", len(recs[1].frames))
	}
	if ch.Collisions() == 0 {
		t.Fatal("collision counter did not increase")
	}
}

func TestPartialOverlapCorrupts(t *testing.T) {
	s, ch, recs := build(t, 0, 90, 180)
	ch.Transmit(&Frame{From: 0, To: 1, Kind: Data, Size: 1000})
	// Second frame starts mid-way through the first.
	s.After(ch.AirTime(1000)/2, func() {
		ch.Transmit(&Frame{From: 2, To: 1, Kind: Data, Size: 50})
	})
	s.Run()
	if len(recs[1].frames) != 0 {
		t.Fatalf("node 1 decoded %d frames, want 0 (partial overlap)", len(recs[1].frames))
	}
}

func TestSequentialFramesBothDecoded(t *testing.T) {
	s, ch, recs := build(t, 0, 50)
	ch.Transmit(&Frame{From: 0, To: 1, Kind: Data, Size: 100, Seq: 1})
	s.After(ch.AirTime(100)+time.Millisecond, func() {
		ch.Transmit(&Frame{From: 0, To: 1, Kind: Data, Size: 100, Seq: 2})
	})
	s.Run()
	if len(recs[1].frames) != 2 {
		t.Fatalf("node 1 decoded %d frames, want 2", len(recs[1].frames))
	}
	if recs[1].frames[0].Seq != 1 || recs[1].frames[1].Seq != 2 {
		t.Fatal("frames out of order")
	}
}

func TestHalfDuplex(t *testing.T) {
	// Node 1 starts transmitting, then node 0's frame arrives: node 1
	// cannot decode it.
	s, ch, recs := build(t, 0, 50)
	ch.Transmit(&Frame{From: 1, To: 0, Kind: Data, Size: 2000})
	s.After(time.Microsecond, func() {
		ch.Transmit(&Frame{From: 0, To: 1, Kind: Data, Size: 50})
	})
	s.Run()
	if len(recs[1].frames) != 0 {
		t.Fatalf("transmitting node decoded %d frames, want 0", len(recs[1].frames))
	}
}

func TestBusyAndIdleAt(t *testing.T) {
	s, ch, _ := build(t, 0, 50)
	if ch.Busy(1) {
		t.Fatal("channel busy before any transmission")
	}
	ch.Transmit(&Frame{From: 0, To: 1, Kind: Data, Size: 100})
	if !ch.Busy(1) {
		t.Fatal("receiver does not sense carrier")
	}
	if !ch.Busy(0) {
		t.Fatal("transmitter does not sense itself busy")
	}
	idle := ch.IdleAt(1)
	if idle != ch.AirTime(100) {
		t.Fatalf("IdleAt = %v, want %v", idle, ch.AirTime(100))
	}
	s.Run()
	if ch.Busy(1) {
		t.Fatal("channel busy after run drained")
	}
}

func TestAirTimeScalesWithSize(t *testing.T) {
	_, ch, _ := build(t, 0)
	small, big := ch.AirTime(100), ch.AirTime(1000)
	if big <= small {
		t.Fatalf("AirTime(1000)=%v not greater than AirTime(100)=%v", big, small)
	}
	// 512-byte frame at 2 Mbps is ~2.05 ms + 192 us preamble.
	at := ch.AirTime(512)
	want := 192*time.Microsecond + 2048*time.Microsecond
	if at != want {
		t.Fatalf("AirTime(512) = %v, want %v", at, want)
	}
}

func TestNeighborsTracksMobility(t *testing.T) {
	mover := mobility.NewTrace([]mobility.TracePoint{
		{At: 0, Pos: geo.Point{X: 50}},
		{At: 10 * time.Second, Pos: geo.Point{X: 500}},
	})
	s := sim.New(1)
	p := DefaultParams()
	p.Range = 100
	p.MaxSpeed = mover.MaxSpeed()
	ch := NewChannel(s, p)
	ch.Register(0, &mobility.Static{At: geo.Point{}}, &recorder{})
	ch.Register(1, mover, &recorder{})
	if nb := ch.Neighbors(0); len(nb) != 1 || nb[0] != 1 {
		t.Fatalf("Neighbors at t=0: %v, want [1]", nb)
	}
	s.At(10*time.Second, func() {
		if nb := ch.Neighbors(0); len(nb) != 0 {
			t.Errorf("Neighbors at t=10s: %v, want none", nb)
		}
	})
	s.Run()
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	s := sim.New(1)
	ch := NewChannel(s, DefaultParams())
	ch.Register(0, &mobility.Static{}, &recorder{})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	ch.Register(0, &mobility.Static{}, &recorder{})
}

// TestRegisterOutOfOrderPanics verifies stations are registered in id
// order, 0 first: an id is the station's index in the channel's tables, so
// a skipped or negative id is a wiring bug.
func TestRegisterOutOfOrderPanics(t *testing.T) {
	ch := NewChannel(sim.New(1), DefaultParams())
	mustPanic(t, func() { ch.Register(1, &mobility.Static{}, &recorder{}) }, "station 1 registered twice or out of order", "next id is 0")
	ch.Register(0, &mobility.Static{}, &recorder{})
	mustPanic(t, func() { ch.Register(-1, &mobility.Static{}, &recorder{}) }, "station -1 registered", "next id is 1")
	mustPanic(t, func() { ch.Register(0, &mobility.Static{}, &recorder{}) }, "station 0 registered twice", "next id is 1")
}

// TestValidateMatchesNewChannel verifies Validate and NewChannel apply one
// check: Validate refuses exactly the Params NewChannel panics on, with the
// same message — an unknown propagation key, a MaxRange that is not
// finite and positive, and a speed bound with no refresh epoch.
func TestValidateMatchesNewChannel(t *testing.T) {
	for _, c := range []struct {
		name  string
		edit  func(*Params)
		wants string // "" when the Params are sound
	}{
		{"default", func(*Params) {}, ""},
		{"moving", func(p *Params) { p.MaxSpeed = 20 }, ""},
		{"shadowing", func(p *Params) {
			p.Propagation = PropSpec{Model: "shadowing", Params: map[string]float64{"sigma_db": 8}}
		}, ""},
		{"unknown key", func(p *Params) { p.Propagation = PropSpec{Model: "shadowing", Params: map[string]float64{"sigma": 12}} }, `unknown parameter "sigma"`},
		{"unit-disk key", func(p *Params) { p.Propagation = PropSpec{Params: map[string]float64{"sigma_db": 4}} }, `unknown parameter "sigma_db"`},
		{"infinite sigma", func(p *Params) {
			p.Propagation = PropSpec{Model: "shadowing", Params: map[string]float64{"sigma_db": 1e300}}
		}, "MaxRange +Inf"},
		{"vanishing exponent", func(p *Params) {
			p.Propagation = PropSpec{Model: "shadowing", Params: map[string]float64{"pathloss_exp": 1e-300}}
		}, "MaxRange +Inf"},
		{"zero range", func(p *Params) { p.Range = 0 }, "MaxRange 0"},
		{"fast", func(p *Params) { p.MaxSpeed = 1e12 }, "no refresh epoch"},
		{"crawling", func(p *Params) { p.MaxSpeed = 1e-300 }, "no refresh epoch"},
		{"NaN speed", func(p *Params) { p.MaxSpeed = math.NaN() }, "MaxSpeed NaN"},
	} {
		p := DefaultParams()
		c.edit(&p)
		err := Validate(p)
		if c.wants == "" {
			if err != nil {
				t.Errorf("%s: Validate = %v", c.name, err)
			} else {
				NewChannel(sim.New(1), p)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wants) {
			t.Errorf("%s: Validate = %v, want an error mentioning %q", c.name, err, c.wants)
			continue
		}
		mustPanic(t, func() { NewChannel(sim.New(1), p) }, err.Error())
	}
}

// mustPanic runs f and fails unless it panics with a message containing
// every want.
func mustPanic(t *testing.T, f func(), want ...string) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Fatalf("panic %q does not mention %q", msg, w)
			}
		}
	}()
	f()
	t.Fatal("did not panic")
}

// TestNonPositiveMaxRangePanics verifies a channel cannot be built over a
// propagation model without a positive MaxRange (the grid, the only
// audibility path, sizes its cells from it), and that the panic names the
// offending range.
func TestNonPositiveMaxRangePanics(t *testing.T) {
	for _, r := range []float64{0, -5} {
		p := DefaultParams()
		p.Range = r
		mustPanic(t, func() { NewChannel(sim.New(1), p) }, "MaxRange", fmt.Sprint(r))
	}
}

// TestMoverWithoutSpeedBoundPanics verifies MaxSpeed 0 means what it says:
// a station that transmits away from where it registered is a wiring
// error, not a reason to fall back to a slower path.
func TestMoverWithoutSpeedBoundPanics(t *testing.T) {
	s, ch, _ := build(t, 0, 50)
	ch.Register(2, mobility.NewTrace([]mobility.TracePoint{
		{At: 0, Pos: geo.Point{X: 60}},
		{At: time.Second, Pos: geo.Point{X: 70}},
	}), &recorder{})
	ch.Transmit(&Frame{From: 2, To: Broadcast, Kind: Data, Size: 10})
	s.RunUntil(time.Second)
	mustPanic(t, func() { ch.Transmit(&Frame{From: 2, To: Broadcast, Kind: Data, Size: 10}) }, "station 2", "MaxSpeed")
}

// TestUnboundedSpeedPanics verifies a speed bound that leaves the grid no
// refresh epoch (a teleporting Trace reports +Inf) is refused.
func TestUnboundedSpeedPanics(t *testing.T) {
	jump := mobility.NewTrace([]mobility.TracePoint{
		{At: time.Second, Pos: geo.Point{X: 0}},
		{At: time.Second, Pos: geo.Point{X: 10}},
	})
	p := DefaultParams()
	p.MaxSpeed = jump.MaxSpeed()
	mustPanic(t, func() { NewChannel(sim.New(1), p) }, "MaxSpeed", "+Inf")
}

// TestStationSize pins the per-station footprint audible walks for every
// hearer-list entry of every transmission: past 128 bytes a station leaves
// its size class, stops being cache-line aligned, and every tier slows a
// little. (The list itself is not in it: a 24-byte header per station in
// Channel.lists, 4 or 12 bytes per entry in the channel's arenas.)
func TestStationSize(t *testing.T) {
	if size := unsafe.Sizeof(station{}); size > 128 {
		t.Fatalf("station is %d bytes, want at most 128", size)
	}
}

func TestFramesCounter(t *testing.T) {
	s, ch, _ := build(t, 0, 50)
	ch.Transmit(&Frame{From: 0, To: 1, Kind: Data, Size: 10})
	s.Run()
	if ch.Frames() != 1 {
		t.Fatalf("Frames = %d, want 1", ch.Frames())
	}
}

func TestCaptureNearSenderWins(t *testing.T) {
	// Receiver at 0; near sender at 30 m, far interferer at 90 m:
	// 90/30 = 3 >= 1.78, the near frame captures.
	s, ch, recs := build(t, 0, 30, 90)
	ch.Transmit(&Frame{From: 1, To: 0, Kind: Data, Size: 100, Seq: 1})
	ch.Transmit(&Frame{From: 2, To: 0, Kind: Data, Size: 100, Seq: 2})
	s.Run()
	if len(recs[0].frames) != 1 || recs[0].frames[0].Seq != 1 {
		t.Fatalf("capture failed: got %v", recs[0].frames)
	}
}

func TestNoCaptureAtSimilarDistance(t *testing.T) {
	// Senders at 50 and 60 m: 60/50 = 1.2 < 1.78, both corrupted.
	s, ch, recs := build(t, 0, 50, 60)
	ch.Transmit(&Frame{From: 1, To: 0, Kind: Data, Size: 100})
	ch.Transmit(&Frame{From: 2, To: 0, Kind: Data, Size: 100})
	s.Run()
	if len(recs[0].frames) != 0 {
		t.Fatalf("similar-distance overlap decoded: %v", recs[0].frames)
	}
}

func TestCaptureDisabled(t *testing.T) {
	s := sim.New(1)
	p := DefaultParams()
	p.Range = 100
	p.CaptureRatio = 0
	ch := NewChannel(s, p)
	recs := []*recorder{{}, {}, {}}
	for i, x := range []float64{0, 30, 90} {
		ch.Register(NodeID(i), &mobility.Static{At: geo.Point{X: x}}, recs[i])
	}
	ch.Transmit(&Frame{From: 1, To: 0, Kind: Data, Size: 100})
	ch.Transmit(&Frame{From: 2, To: 0, Kind: Data, Size: 100})
	s.Run()
	if len(recs[0].frames) != 0 {
		t.Fatalf("capture disabled but frame decoded: %v", recs[0].frames)
	}
}

// TestSameInstantTransmitFromOnFrame pins how a frame's receptions end:
// one at a time in registration order, each leaving its station's active
// set before it is delivered. A, B, C are mutually in range; B answers A's
// frame from OnFrame, at the very instant it ends. C is still receiving
// A's frame then, so at C the two frames corrupt each other (C's distances
// to A and B, 60 and 50 m, are too alike for capture), while A — no
// longer transmitting — decodes B's.
func TestSameInstantTransmitFromOnFrame(t *testing.T) {
	s, ch, h := build(t, 0, 10, 60)
	var busyAtC, busyAtB bool
	h[1].on = func(f *Frame) {
		busyAtB, busyAtC = ch.Busy(1), ch.Busy(2)
		ch.Transmit(&Frame{From: 1, To: Broadcast, Kind: Data, Size: 100, Seq: 2})
	}
	ch.Transmit(&Frame{From: 0, To: Broadcast, Kind: Data, Size: 100, Seq: 1})
	s.Run()
	if len(h[1].frames) != 1 || h[1].frames[0].Seq != 1 {
		t.Fatalf("B got %v, want A's frame", h[1].frames)
	}
	if busyAtB || !busyAtC {
		t.Fatalf("inside B's OnFrame: Busy(B)=%v Busy(C)=%v, want false (its reception is over) and true (C's is not)", busyAtB, busyAtC)
	}
	if len(h[2].frames) != 0 {
		t.Fatalf("C decoded %v; A's frame was still on the air at C when B transmitted, so both are lost there", h[2].frames)
	}
	if len(h[0].frames) != 1 || h[0].frames[0].Seq != 2 {
		t.Fatalf("A got %v, want B's frame", h[0].frames)
	}
	if ch.Collisions() != 2 {
		t.Fatalf("Collisions = %d, want 2 (A's and B's frames, both at C)", ch.Collisions())
	}
	if ch.Busy(0) || ch.Busy(1) || ch.Busy(2) {
		t.Fatal("a station is busy after the run drained")
	}
}

// TestOneEventPerTransmission verifies a transmission costs the kernel one
// event however many stations hear it, and none when nobody does.
func TestOneEventPerTransmission(t *testing.T) {
	for _, hearers := range []int{1, 5, 40} {
		xs := make([]float64, hearers+1)
		for i := range xs {
			xs[i] = float64(2 * i)
		}
		s, ch, recs := build(t, xs...)
		for i := 0; i < 3; i++ {
			before := s.Fired()
			ch.Transmit(&Frame{From: 0, To: Broadcast, Kind: Data, Size: 100})
			if s.Pending() != 1 {
				t.Fatalf("%d hearers: %d events pending after Transmit, want 1", hearers, s.Pending())
			}
			s.Run()
			if got := s.Fired() - before; got != 1 {
				t.Fatalf("%d hearers: transmission fired %d events, want 1", hearers, got)
			}
		}
		for i, r := range recs[1:] {
			if len(r.frames) != 3 {
				t.Fatalf("%d hearers: station %d got %d frames, want 3", hearers, i+1, len(r.frames))
			}
		}
	}
	s, ch, _ := build(t, 0, 500)
	ch.Transmit(&Frame{From: 0, To: Broadcast, Kind: Data, Size: 100})
	if s.Pending() != 0 {
		t.Fatalf("a transmission nobody hears left %d events pending, want 0", s.Pending())
	}
}

// TestSameInstantEndsDeliverInScheduleOrder verifies two transmissions that
// end at the same instant are delivered whole, one after the other, in the
// order they were put on the air — not merged by registration order, which
// here runs the other way.
func TestSameInstantEndsDeliverInScheduleOrder(t *testing.T) {
	// Late pair registered first: stations 0, 1 at 1000, 1050 and the early
	// pair 2, 3 at 0, 50, out of each other's range.
	s, ch, h := build(t, 1000, 1050, 0, 50)
	var order []uint32
	for _, x := range h {
		x.on = func(f *Frame) { order = append(order, f.Seq) }
	}
	long, short := 200, 100
	ch.Transmit(&Frame{From: 2, To: Broadcast, Kind: Data, Size: long, Seq: 1})
	s.At(ch.AirTime(long)-ch.AirTime(short), func() {
		ch.Transmit(&Frame{From: 0, To: Broadcast, Kind: Data, Size: short, Seq: 2})
	})
	s.Run()
	if s.Now() != ch.AirTime(long) {
		t.Fatalf("run ended at %v, want both frames to end at %v", s.Now(), ch.AirTime(long))
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order %v, want [1 2]", order)
	}
}

// TestUnregisteredStationPanics verifies every entry point that takes a
// station id names an id nobody registered instead of dereferencing nil.
func TestUnregisteredStationPanics(t *testing.T) {
	_, ch, _ := build(t, 0, 50)
	for _, id := range []NodeID{7, -3} {
		for _, c := range []struct {
			name string
			call func()
		}{
			{"Busy", func() { ch.Busy(id) }},
			{"IdleAt", func() { ch.IdleAt(id) }},
			{"SetNAV", func() { ch.SetNAV(id, time.Second) }},
			{"Transmitting", func() { ch.Transmitting(id) }},
			{"Position", func() { ch.Position(id) }},
			{"Neighbors", func() { ch.Neighbors(id) }},
			{"Transmit", func() { ch.Transmit(&Frame{From: id, To: Broadcast, Kind: Data, Size: 10}) }},
		} {
			t.Run(fmt.Sprintf("%s/%d", c.name, id), func(t *testing.T) {
				mustPanic(t, c.call, fmt.Sprintf("radio: unregistered station %d", id))
			})
		}
	}
}
