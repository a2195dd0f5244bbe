// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel is the substrate equivalent of GloMoSim's event engine used in
// the paper's evaluation: a virtual clock, an event queue, and a seeded
// random number generator. NewRand (rand.go) is the one constructor of
// random streams in simulation code, the simulator's own and every
// per-node stream: its draws are bit-identical to math/rand's per seed, so
// recorded seeds replay unchanged, but it seeds its state on first draw.
// A single Simulator instance is single-threaded by design so that a given
// seed always reproduces the same event ordering; parallelism is obtained
// by running many Simulator instances concurrently (one per trial, see
// internal/runner).
//
// The event queue is a ladder queue (see ladder.go) over a freelist of
// pooled Event structs: a near-future bucket wheel absorbs the dense timer
// traffic of a large simulation in O(1) amortized time per event, an
// overflow ladder of progressively finer rungs holds far-future events,
// and a small indexed 4-ary min-heap — the original heap-only scheduler,
// demoted to the "bottom" tier — totally orders the handful of imminent
// events. Firing order is the exact (at, seq) order the heap-only
// scheduler produced: equal-time events run FIFO in schedule order, so a
// seed's output is byte-identical whichever structure queued the events
// (enforced by the differential fuzz test against the reference heap,
// FuzzLadderVsHeap). A rung bucket is a list threaded through the events'
// own next/prev fields, so the rungs hold no slot per event: the queue's
// storage follows the pending set, not the largest bucket it ever held.
//
// Amortized cost per operation:
//
//	At/After:    O(1) — bucket index + list link (O(log b) for the b
//	             imminent events already promoted to the bottom heap, with
//	             b small)
//	Step:        O(1) — bottom-heap pop of size <= ~ladderThresh, plus each
//	             event's O(1) share of bucket promotion
//	Cancel:      O(1) in a bucket (list unlink) or the overflow list
//	             (swap-remove); O(log b) in the bottom heap
//	Reschedule:  one unlink + one insert of the same pooled node
//	RunUntil:    peek is O(1) after the same promotion work Step would do
//
// When the pending set is tiny, or events cluster so tightly that buckets
// cannot split further (equal timestamps, 1ns widths, maxRungs deep), the
// ladder degrades gracefully to exactly the old heap: everything sits in
// the bottom tier and costs O(log n). See ladder.go for the bucket width
// policy and the tier invariants.
//
// Because Event structs are recycled, user code holds Timer handles
// rather than raw *Event pointers: a Timer carries the generation of the
// node it was issued for, so Cancel or Reschedule through a stale handle
// (after the event fired, was canceled, or its storage was reused) is a
// safe no-op instead of acting on whatever event now occupies the node.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Time is virtual simulation time. It uses time.Duration so the rest of the
// code can use natural literals (e.g. 50*time.Millisecond) while remaining a
// pure virtual quantity.
type Time = time.Duration

// MaxSpan bounds every span a run's inputs set (a duration, a pause, a
// packet interval, a protocol's longest wait): half of Time's range, so
// the clock plus one span cannot wrap in a run that long (146 years).
// Seconds and Span are the only float-to-Time conversions (slrlint's
// timeconv).
const MaxSpan = Time(math.MaxInt64 >> 1)

// Seconds converts v seconds, an input, to Time: v·1e9 ns, truncated. It
// refuses NaN, ±Inf, a negative v and one past MaxSpan, quoting v.
func Seconds(v float64) (Time, error) {
	if ns := v * float64(time.Second); ns >= 0 && ns < float64(MaxSpan) {
		return Time(ns), nil
	}
	return 0, fmt.Errorf("%v is not a span of seconds in [0, %.3f]", v, MaxSpan.Seconds())
}

// Span converts ns float nanoseconds, a draw or a derived span, to Time,
// truncated; at or past MaxSpan, or NaN, it is MaxSpan: "never this run".
func Span(ns float64) Time {
	if ns < float64(MaxSpan) {
		return Time(ns)
	}
	return MaxSpan
}

// Event is a pooled scheduler node. User code never constructs or holds
// Events directly; At, After, and Reschedule return Timer handles.
type Event struct {
	at  Time
	seq uint64 // tie-break so equal-time events run FIFO
	fn  func()
	// next and prev link the event into its rung bucket's list; both are
	// nil anywhere else.
	next, prev *Event
	// loc says which tier holds the event (locNone / locBottom / locTop /
	// a rung index); index is its slot in the bottom heap or the top list,
	// or its bucket within a rung.
	loc   int32
	index int32
	gen   uint32 // bumped whenever the node returns to the freelist
}

// Timer is a handle to a scheduled event. The zero Timer is inert: Cancel
// and Reschedule through it are safe no-ops. A Timer stays safe to use
// after its event fires or is canceled — the generation check turns stale
// operations into no-ops even once the pooled Event struct has been reused
// for a different event.
type Timer struct {
	ev  *Event
	gen uint32
}

// Pending reports whether the timer's event is still scheduled.
func (t Timer) Pending() bool {
	return t.ev != nil && t.gen == t.ev.gen && t.ev.loc != locNone
}

// eventChunk is how many Event structs the freelist grows by at a time.
const eventChunk = 128

// Simulator is a discrete-event scheduler with a virtual clock.
type Simulator struct {
	now    Time
	seq    uint64
	rng    *rand.Rand
	fired  uint64
	maxGas uint64 // safety bound on total events; 0 = unlimited
	free   []*Event
	npend  int

	// Ladder-queue tiers; see ladder.go for the structure and invariants.
	bottom   []*Event // indexed 4-ary heap of imminent events
	rungs    []*rung  // bucket wheels, coarsest first
	top      []*Event // unsorted overflow: at >= topStart
	lowBound Time     // bottom/rung boundary: bottom events are < lowBound
	topStart Time     // rung/top boundary: top events are >= topStart
	rungPool []*rung

	// check, when non-nil, mirrors every operation into a reference
	// (at, seq) heap and panics on the first out-of-order firing. See
	// debugcheck.go; tests only.
	check *shadowChecker
}

// New returns a Simulator whose RNG is NewRand(seed).
func New(seed int64) *Simulator {
	return &Simulator{rng: NewRand(seed)}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulation RNG, a NewRand stream: its draws equal
// math/rand's for the same seed. All randomness in a run must come from
// this generator or another NewRand stream seeded from the trial's seed, so
// a seed fully determines the run.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// SetEventLimit bounds the total number of events fired by Run; 0 removes
// the bound. It is a guard against runaway event storms in tests. A limit
// stops the run between two events, and the radio ends all of a frame's
// receptions in one: the run can halt between two transmissions' ends of
// air, never between two receptions of one frame.
func (s *Simulator) SetEventLimit(n uint64) { s.maxGas = n }

// Fired returns the number of events executed so far.
func (s *Simulator) Fired() uint64 { return s.fired }

// Pending returns the number of events currently scheduled.
func (s *Simulator) Pending() int { return s.npend }

// alloc takes an Event node from the freelist, growing it by a chunk when
// empty so steady-state scheduling never touches the garbage collector.
func (s *Simulator) alloc() *Event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	chunk := make([]Event, eventChunk)
	for i := 1; i < eventChunk; i++ {
		chunk[i].loc = locNone
		s.free = append(s.free, &chunk[i])
	}
	chunk[0].loc = locNone
	return &chunk[0]
}

// release returns a fired or canceled node to the freelist. Bumping the
// generation invalidates every Timer issued for the node's previous life.
func (s *Simulator) release(ev *Event) {
	ev.fn = nil
	ev.loc = locNone
	ev.gen++
	s.free = append(s.free, ev)
}

// At schedules fn to run at absolute virtual time at. Scheduling in the past
// panics: it always indicates a logic error in a discrete-event model.
func (s *Simulator) At(at Time, fn func()) Timer {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, s.now))
	}
	ev := s.alloc()
	ev.at = at
	ev.seq = s.seq
	ev.fn = fn
	s.seq++
	s.schedule(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn to run d after the current time.
func (s *Simulator) After(d Time, fn func()) Timer {
	return s.At(s.now+d, fn)
}

// Reschedule moves t's event to fire fn at absolute time at. When t is
// still pending its pooled node is reused — one unlink from whichever
// ladder tier holds it and one re-insert, no cancel+allocate churn —
// which is the cheap path for the MAC and radio retransmit timers that
// re-arm on every attempt. When t already fired or was canceled a fresh
// event is scheduled. Like At, rescheduling into the past panics. The
// returned Timer supersedes t.
func (s *Simulator) Reschedule(t Timer, at Time, fn func()) Timer {
	if at < s.now {
		panic(fmt.Sprintf("sim: rescheduling event at %v before now %v", at, s.now))
	}
	if !t.Pending() {
		return s.At(at, fn)
	}
	ev := t.ev
	s.unlink(ev)
	ev.at = at
	ev.fn = fn
	ev.seq = s.seq // a reschedule orders FIFO with fresh schedules
	s.seq++
	s.schedule(ev)
	return t
}

// RescheduleAfter moves t's event to fire fn d after the current time.
func (s *Simulator) RescheduleAfter(t Timer, d Time, fn func()) Timer {
	return s.Reschedule(t, s.now+d, fn)
}

// Cancel removes t's event from the queue if it has not yet fired. Stale
// and zero Timers are ignored.
func (s *Simulator) Cancel(t Timer) {
	if !t.Pending() {
		return
	}
	s.unlink(t.ev)
	s.release(t.ev)
}

// Step runs the next event. It returns false when the queue is empty.
func (s *Simulator) Step() bool {
	if len(s.bottom) == 0 && !s.refill() {
		return false
	}
	ev := s.bottomPop()
	if s.check != nil {
		s.check.fire(ev)
	}
	s.now = ev.at
	fn := ev.fn
	// Release before running so fn sees its own timer as spent: canceling
	// or rescheduling it from inside the callback hits the stale-handle
	// path, and the node is immediately reusable for events fn schedules.
	s.release(ev)
	s.fired++
	fn()
	return true
}

// RunUntil executes events until the clock would pass end or the queue
// drains. Events scheduled exactly at end do run.
func (s *Simulator) RunUntil(end Time) {
	for len(s.bottom) > 0 || s.refill() {
		if s.maxGas != 0 && s.fired >= s.maxGas {
			return
		}
		if s.bottom[0].at > end {
			s.now = end
			return
		}
		s.Step()
	}
	if s.now < end {
		s.now = end
	}
}

// Run executes events until the queue drains.
func (s *Simulator) Run() {
	for s.Step() {
		if s.maxGas != 0 && s.fired >= s.maxGas {
			return
		}
	}
}
