// Package sim is a miniature stand-in for slr/internal/sim, just large
// enough for the analyzer fixtures: the pooled Event, the Timer handle,
// and a Simulator whose At/After consume FIFO sequence numbers. The
// suffix-tolerant package matching in slrlint makes the analyzers'
// defaults ("slr/internal/sim.Event", ...) bind to this package too.
package sim

import "math/rand"

// NewRand is the stream constructor: the one place rand.NewSource is
// legal (walltime).
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Time is simulated time.
type Time int64

// Span is the saturating float conversion: its package is the one
// timeconv lets convert a float to Time.
func Span(ns float64) Time {
	if ns < 1<<62 {
		return Time(ns)
	}
	return 1<<62 - 1
}

// Event is a pooled scheduler node: recycled onto the freelist the
// moment its callback returns.
type Event struct {
	ID   uint64
	When Time
	Fn   func()
	next *Event
}

// Timer is the generation-checked handle that may outlive an Event.
type Timer struct {
	ev  *Event
	gen uint64
}

// Simulator is the fixture kernel.
type Simulator struct {
	now      Time
	seq      uint64
	freelist *Event
}

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// At schedules fn at t, consuming one FIFO sequence number.
func (s *Simulator) At(t Time, fn func()) Timer {
	ev := s.alloc()
	ev.When, ev.Fn = t, fn
	return Timer{ev: ev, gen: ev.ID}
}

// After schedules fn at Now()+d.
func (s *Simulator) After(d Time, fn func()) Timer { return s.At(s.now+d, fn) }

// Schedule is the handle-less scheduling entry point.
func (s *Simulator) Schedule(t Time, fn func()) { s.At(t, fn) }

func (s *Simulator) alloc() *Event {
	s.seq++
	if ev := s.freelist; ev != nil {
		s.freelist = ev.next
		ev.ID = s.seq
		return ev
	}
	return &Event{ID: s.seq}
}

// release returns an Event to the freelist. The defining package is the
// pool owner, so pooledescape exempts these stores by construction.
func (s *Simulator) release(ev *Event) {
	ev.Fn = nil
	ev.next = s.freelist
	s.freelist = ev
}
