package radio

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"slr/internal/geo"
	"slr/internal/mobility"
	"slr/internal/sim"
)

type recorder struct {
	frames []*Frame
}

func (r *recorder) OnFrame(f *Frame) { r.frames = append(r.frames, f) }

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

// TestStationSize pins the per-station footprint audible and grid.query
// walk on every transmission: past 128 bytes a station leaves its size
// class, stops being cache-line aligned, and every tier slows a little.
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
