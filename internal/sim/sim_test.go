package sim

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(3*time.Second, func() { got = append(got, 3) })
	s.At(1*time.Second, func() { got = append(got, 1) })
	s.At(2*time.Second, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Second {
		t.Fatalf("Now = %v, want 3s", s.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { got = append(got, i) })
	}
	s.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("equal-time events not FIFO: %v", got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	s := New(1)
	var fired Time
	s.At(5*time.Second, func() {
		s.After(2*time.Second, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 7*time.Second {
		t.Fatalf("fired at %v, want 7s", fired)
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	ran := false
	ev := s.At(time.Second, func() { ran = true })
	if !ev.Pending() {
		t.Fatal("Pending() = false for a scheduled event")
	}
	s.Cancel(ev)
	s.Run()
	if ran {
		t.Fatal("canceled event ran")
	}
	if ev.Pending() {
		t.Fatal("Pending() = true after Cancel")
	}
	// Canceling twice or canceling the zero Timer must be safe.
	s.Cancel(ev)
	s.Cancel(Timer{})
}

func TestCancelFromWithinEvent(t *testing.T) {
	s := New(1)
	ran := false
	ev := s.At(2*time.Second, func() { ran = true })
	s.At(time.Second, func() { s.Cancel(ev) })
	s.Run()
	if ran {
		t.Fatal("event canceled mid-run still ran")
	}
}

func TestCancelAfterFire(t *testing.T) {
	// A Timer whose event already fired must be inert: canceling it later
	// must not touch whatever event reuses the pooled node.
	s := New(1)
	fires := 0
	stale := s.At(time.Second, func() { fires++ })
	s.Run()
	if fires != 1 {
		t.Fatalf("fired %d times, want 1", fires)
	}
	if stale.Pending() {
		t.Fatal("fired event still pending")
	}
	// The freelist hands the same node back for the next event.
	fresh := s.At(2*time.Second, func() { fires++ })
	if fresh.ev != stale.ev {
		t.Fatalf("expected pooled reuse of the fired node")
	}
	s.Cancel(stale) // stale generation: must be a no-op
	if !fresh.Pending() {
		t.Fatal("stale Cancel killed the event reusing the node")
	}
	s.Run()
	if fires != 2 {
		t.Fatalf("fired %d times, want 2 (stale cancel resurrected or killed)", fires)
	}
}

func TestPooledReuseDoesNotResurrectCanceled(t *testing.T) {
	// Cancel an event, let a new event claim the pooled node, and check
	// the old handle observes nothing and the new event still fires.
	s := New(1)
	var log []string
	old := s.At(time.Second, func() { log = append(log, "old") })
	s.Cancel(old)
	reused := s.At(time.Second, func() { log = append(log, "new") })
	if reused.ev != old.ev {
		t.Fatalf("expected the canceled node to be reused")
	}
	if old.Pending() {
		t.Fatal("canceled handle reports pending after node reuse")
	}
	s.Cancel(old) // again: must not cancel the new occupant
	s.Run()
	if len(log) != 1 || log[0] != "new" {
		t.Fatalf("log = %v, want [new]", log)
	}
}

func TestRescheduleMovesPendingEvent(t *testing.T) {
	s := New(1)
	var fired []Time
	ev := s.At(time.Second, func() { fired = append(fired, s.Now()) })
	ev2 := s.Reschedule(ev, 3*time.Second, func() { fired = append(fired, s.Now()) })
	if ev2.ev != ev.ev || ev2.gen != ev.gen {
		t.Fatal("reschedule of a pending event did not reuse its node")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 after in-place reschedule", s.Pending())
	}
	s.Run()
	if len(fired) != 1 || fired[0] != 3*time.Second {
		t.Fatalf("fired = %v, want [3s]", fired)
	}
}

func TestRescheduleEarlier(t *testing.T) {
	s := New(1)
	var at Time
	ev := s.At(5*time.Second, func() { at = s.Now() })
	s.Reschedule(ev, time.Second, func() { at = s.Now() })
	s.Run()
	if at != time.Second {
		t.Fatalf("fired at %v, want 1s", at)
	}
}

func TestRescheduleSpentTimerSchedulesFresh(t *testing.T) {
	s := New(1)
	count := 0
	ev := s.At(time.Second, func() { count++ })
	s.Run()
	ev = s.Reschedule(ev, 2*time.Second, func() { count += 10 })
	if !ev.Pending() {
		t.Fatal("reschedule of spent timer did not schedule")
	}
	s.Run()
	if count != 11 {
		t.Fatalf("count = %d, want 11", count)
	}
}

func TestRescheduleFromWithinOwnCallback(t *testing.T) {
	// Rescheduling your own timer while it fires must schedule a fresh
	// event, not act on the node's next occupant.
	s := New(1)
	var times []Time
	var tm Timer
	tm = s.At(time.Second, func() {
		tm = s.RescheduleAfter(tm, time.Second, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 1 || times[0] != 2*time.Second {
		t.Fatalf("times = %v, want [2s]", times)
	}
}

func TestRescheduleIntoPastPanics(t *testing.T) {
	s := New(1)
	ev := s.At(10*time.Second, func() {})
	s.At(5*time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic rescheduling into the past")
			}
		}()
		s.Reschedule(ev, time.Second, func() {})
	})
	s.RunUntil(6 * time.Second)
}

func TestRunUntilStopsClock(t *testing.T) {
	s := New(1)
	count := 0
	s.At(1*time.Second, func() { count++ })
	s.At(10*time.Second, func() { count++ })
	s.RunUntil(5 * time.Second)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if s.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", s.Now())
	}
	// The 10s event must still fire if we keep running.
	s.RunUntil(20 * time.Second)
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestRunUntilInclusiveBoundary(t *testing.T) {
	s := New(1)
	ran := false
	s.At(5*time.Second, func() { ran = true })
	s.RunUntil(5 * time.Second)
	if !ran {
		t.Fatal("event at boundary did not run")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.At(5*time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		s.At(time.Second, func() {})
	})
	s.Run()
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []int64 {
		s := New(seed)
		var vals []int64
		var tick func()
		tick = func() {
			vals = append(vals, s.Rand().Int63n(1000))
			if len(vals) < 50 {
				s.After(time.Duration(s.Rand().Int63n(int64(time.Second))), tick)
			}
		}
		s.After(0, tick)
		s.Run()
		return vals
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if i < len(c) && a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestEventLimit(t *testing.T) {
	s := New(1)
	s.SetEventLimit(10)
	var tick func()
	tick = func() { s.After(time.Millisecond, tick) }
	s.After(0, tick)
	s.RunUntil(time.Hour)
	if s.Fired() != 10 {
		t.Fatalf("fired %d events, want 10", s.Fired())
	}
}

func TestPending(t *testing.T) {
	s := New(1)
	s.At(time.Second, func() {})
	s.At(2*time.Second, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.Step()
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
}

func TestCancelLaterEventAtSameTimestamp(t *testing.T) {
	// The victim is already due — same timestamp, later seq — when the
	// event ahead of it cancels it.
	s := New(1)
	var log []string
	var victim Timer
	s.At(time.Second, func() {
		log = append(log, "a")
		s.Cancel(victim)
	})
	victim = s.At(time.Second, func() { log = append(log, "victim") })
	s.At(time.Second, func() { log = append(log, "c") })
	s.Run()
	if len(log) != 2 || log[0] != "a" || log[1] != "c" {
		t.Fatalf("log = %v, want [a c]", log)
	}
	if victim.Pending() || s.Pending() != 0 {
		t.Fatalf("victim pending = %v, Pending = %d after drain", victim.Pending(), s.Pending())
	}
}

func TestRescheduleLaterEventAtSameTimestamp(t *testing.T) {
	s := New(1)
	var log []string
	var firedAt Time
	var moved Timer
	s.At(time.Second, func() {
		log = append(log, "a")
		moved = s.Reschedule(moved, 2*time.Second, func() {
			log = append(log, "moved")
			firedAt = s.Now()
		})
	})
	moved = s.At(time.Second, func() { log = append(log, "stale") })
	s.At(time.Second, func() { log = append(log, "c") })
	s.Run()
	if len(log) != 3 || log[0] != "a" || log[1] != "c" || log[2] != "moved" {
		t.Fatalf("log = %v, want [a c moved]", log)
	}
	if firedAt != 2*time.Second {
		t.Fatalf("moved event fired at %v, want 2s", firedAt)
	}
}

func TestPendingBetweenSameTimestampEvents(t *testing.T) {
	// Pending counts exactly the events that have not fired, including
	// the rest of the timestamp being worked through.
	s := New(1)
	var seen []int
	for i := 0; i < 3; i++ {
		s.At(time.Second, func() { seen = append(seen, s.Pending()) })
	}
	s.Step()
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d after one of three same-time events, want 2", s.Pending())
	}
	s.Run()
	if len(seen) != 3 || seen[0] != 2 || seen[1] != 1 || seen[2] != 0 {
		t.Fatalf("Pending seen from callbacks = %v, want [2 1 0]", seen)
	}
}

func TestEventLimitStopsMidTimestamp(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.SetEventLimit(3)
	s.RunUntil(time.Hour)
	if s.Fired() != 3 || len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("fired %d events in order %v, want exactly [0 1 2]", s.Fired(), order)
	}
	if s.Pending() != 2 || s.Now() != time.Second {
		t.Fatalf("Pending = %d at %v, want 2 at 1s", s.Pending(), s.Now())
	}
	// Lifting the limit resumes in the middle of the timestamp.
	s.SetEventLimit(0)
	s.RunUntil(time.Hour)
	if len(order) != 5 || order[3] != 3 || order[4] != 4 {
		t.Fatalf("order after resume = %v, want [0 1 2 3 4]", order)
	}
}

// TestHeapStress drives the 4-ary heap through a large randomized mix of
// schedules, cancels, and reschedules and checks the firing order is
// globally sorted by (time, schedule order).
func TestHeapStress(t *testing.T) {
	s := New(1)
	rng := rand.New(rand.NewSource(99))
	type rec struct {
		at  Time
		seq int
	}
	var fired []rec
	var timers []Timer
	next := 0
	for i := 0; i < 5000; i++ {
		switch rng.Intn(10) {
		case 0, 1: // cancel a random timer (possibly stale)
			if len(timers) > 0 {
				s.Cancel(timers[rng.Intn(len(timers))])
			}
		case 2: // reschedule a random timer (possibly stale)
			if len(timers) > 0 {
				at := Time(rng.Int63n(int64(time.Hour)))
				n := next
				next++
				timers[rng.Intn(len(timers))] = s.Reschedule(
					timers[rng.Intn(len(timers))], at,
					func() { fired = append(fired, rec{s.Now(), n}) })
			}
		default:
			at := Time(rng.Int63n(int64(time.Hour)))
			n := next
			next++
			timers = append(timers, s.At(at, func() { fired = append(fired, rec{s.Now(), n}) }))
		}
	}
	s.Run()
	if s.Pending() != 0 {
		t.Fatalf("queue not drained: %d pending", s.Pending())
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool {
		if fired[i].at != fired[j].at {
			return fired[i].at < fired[j].at
		}
		return i < j
	}) {
		t.Fatal("events fired out of time order")
	}
}

// TestSteadyStateZeroAlloc checks the pooled kernel's core promise: a
// schedule/fire cycle in the steady state does not allocate.
func TestSteadyStateZeroAlloc(t *testing.T) {
	s := New(1)
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 10000 {
			s.After(time.Microsecond, tick)
		}
	}
	s.After(0, tick)
	s.Step() // warm the pool
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 50; i++ {
			s.Step()
		}
	})
	if avg > 1 {
		t.Fatalf("steady-state schedule/fire allocates %.1f times per 50 events", avg)
	}
}

// TestSeconds pins the checked conversion of a seconds input: v·1e9 ns
// truncated, and a refusal quoting v as given for NaN, ±Inf, a negative
// value and one past MaxSpan.
func TestSeconds(t *testing.T) {
	for _, c := range []struct {
		v    float64
		want Time
	}{
		{0, 0},
		{math.Copysign(0, -1), 0},
		{1, time.Second},
		{2.5, 2500 * time.Millisecond},
		{0.04, 40 * time.Millisecond},
		{1e-10, 0},
		{math.Nextafter(float64(MaxSpan)/1e9, 0), Time(math.Nextafter(float64(MaxSpan)/1e9, 0) * 1e9)},
	} {
		got, err := Seconds(c.v)
		if err != nil || got != c.want {
			t.Errorf("Seconds(%v) = %v, %v; want %v", c.v, got, err, c.want)
		}
		if got < 0 || got > MaxSpan {
			t.Errorf("Seconds(%v) = %d, outside [0, MaxSpan]", c.v, got)
		}
	}
	for _, c := range []struct {
		v    float64
		want string
	}{
		{math.NaN(), "NaN"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
		{-0.001, "-0.001"},
		{1e12, "1e+12"},
		{MaxSpan.Seconds(), "4.611686018427388e+09"},
	} {
		if got, err := Seconds(c.v); err == nil || !strings.HasPrefix(err.Error(), c.want+" ") {
			t.Errorf("Seconds(%v) = %v, %v; want a refusal quoting %s", c.v, got, err, c.want)
		}
	}
}

// TestSpan pins the saturating conversion of a draw: float nanoseconds
// truncated, anything at or past MaxSpan (NaN and +Inf too) MaxSpan.
func TestSpan(t *testing.T) {
	below := math.Nextafter(float64(MaxSpan), 0)
	for _, c := range []struct {
		ns   float64
		want Time
	}{
		{0, 0},
		{1.9, 1},
		{2.5e8, 250 * time.Millisecond},
		{below, Time(below)},
		{float64(MaxSpan), MaxSpan},
		{1e300, MaxSpan},
		{math.Inf(1), MaxSpan},
		{math.NaN(), MaxSpan},
	} {
		if got := Span(c.ns); got != c.want {
			t.Errorf("Span(%v) = %d, want %d", c.ns, got, c.want)
		}
	}
}
