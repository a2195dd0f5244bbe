package sim

import (
	"math/rand"
	"testing"
	"time"
)

// This file differentially tests the ladder queue against a reference
// model: a flat list ordered by the (at, seq) contract. The reference is
// deliberately naive — O(n) sorted insertion — so its correctness is
// evident by inspection; the property is that the Simulator fires exactly
// the sequence the reference predicts, for arbitrary interleavings of
// At/After/Cancel/Reschedule issued both between steps and from inside
// firing callbacks.

// refEv is one reference-model entry. id is the test's label for the
// event; at/seq mirror the Simulator's ordering key exactly (the test
// counts seq consumption alongside the Simulator: one per At, one per
// Reschedule, whether or not the reschedule reused a node).
type refEv struct {
	at  Time
	seq uint64
	id  int
}

// refModel is the sorted reference queue.
type refModel struct {
	evs []refEv
}

func (m *refModel) insert(e refEv) {
	i := len(m.evs)
	for i > 0 {
		p := m.evs[i-1]
		if p.at < e.at || (p.at == e.at && p.seq < e.seq) {
			break
		}
		i--
	}
	m.evs = append(m.evs, refEv{})
	copy(m.evs[i+1:], m.evs[i:])
	m.evs[i] = e
}

func (m *refModel) removeID(id int) (refEv, bool) {
	for i, e := range m.evs {
		if e.id == id {
			m.evs = append(m.evs[:i], m.evs[i+1:]...)
			return e, true
		}
	}
	return refEv{}, false
}

func (m *refModel) pop() refEv {
	e := m.evs[0]
	m.evs = m.evs[1:]
	return e
}

// ladderDiff drives one randomized trace against both the Simulator and
// the reference model and fails on the first ordering divergence. The
// trace mixes scale regimes (a handful to tens of thousands pending),
// time regimes (nanosecond clusters, microsecond ticks, far-future
// bursts), and issues a share of its operations from inside callbacks —
// the cancel-inside-callback and reschedule-across-bucket cases arise
// constantly at scale.
func ladderDiff(t *testing.T, seed int64, ops int) {
	rng := rand.New(rand.NewSource(seed))
	s := New(seed ^ 0x5eed)
	model := &refModel{}
	live := make(map[int]Timer) // pending events by id
	ids := make([]int, 0)       // keys of live, for random choice
	nextID := 0
	var seq uint64 // mirrors s.seq consumption exactly

	// randomAt picks a firing time at or after now, spanning several
	// magnitudes so events land in bottom, rungs, and top tiers.
	randomAt := func() Time {
		now := s.Now()
		switch rng.Intn(10) {
		case 0: // exactly now: same-instant FIFO
			return now
		case 1, 2: // nanosecond cluster: unsplittable buckets
			return now + Time(rng.Intn(4))
		case 3, 4, 5: // dense near future (MAC-timer regime)
			return now + Time(rng.Intn(int(2*time.Millisecond)))
		case 6, 7: // mid future (beacon regime)
			return now + Time(rng.Intn(int(3*time.Second)))
		case 8: // far future (route-timeout regime)
			return now + Time(rng.Intn(int(10*time.Minute)))
		default: // clustered ticks: many equal timestamps
			tick := Time(rng.Intn(50)) * time.Millisecond
			return now + tick
		}
	}

	removeLiveIdx := func(k int) {
		last := len(ids) - 1
		ids[k] = ids[last]
		ids = ids[:last]
	}

	var schedule func(depth int)
	var onFire func(id int, depth int)

	schedule = func(depth int) {
		id := nextID
		nextID++
		at := randomAt()
		d := depth
		tm := s.At(at, func() { onFire(id, d) })
		model.insert(refEv{at: at, seq: seq, id: id})
		seq++
		live[id] = tm
		ids = append(ids, id)
	}

	// mutate cancels or reschedules a random live event, mirroring the
	// model; fromCallback marks ops issued while an event is firing.
	mutate := func() {
		if len(ids) == 0 {
			return
		}
		k := rng.Intn(len(ids))
		id := ids[k]
		tm := live[id]
		if rng.Intn(2) == 0 {
			s.Cancel(tm)
			model.removeID(id)
			delete(live, id)
			removeLiveIdx(k)
			return
		}
		at := randomAt()
		d := rng.Intn(2)
		nt := s.Reschedule(tm, at, func() { onFire(id, d) })
		model.removeID(id)
		model.insert(refEv{at: at, seq: seq, id: id})
		seq++
		live[id] = nt
	}

	onFire = func(id int, depth int) {
		// The model must agree this is the global minimum.
		if len(model.evs) == 0 {
			t.Fatalf("seed %d: sim fired id %d but model is empty", seed, id)
		}
		want := model.pop()
		if want.id != id {
			t.Fatalf("seed %d: fired id %d at %v, model expected id %d at %v (seq %d)",
				seed, id, s.Now(), want.id, want.at, want.seq)
		}
		if want.at != s.Now() {
			t.Fatalf("seed %d: id %d fired at %v, model expected %v", seed, id, s.Now(), want.at)
		}
		delete(live, id)
		for k, v := range ids {
			if v == id {
				removeLiveIdx(k)
				break
			}
		}
		if depth > 0 {
			// Issue ops from inside the callback: schedules land at
			// now+delta (possibly the same instant), cancels and
			// reschedules hit events resident in any tier.
			for i := rng.Intn(3); i > 0; i-- {
				schedule(rng.Intn(depth))
			}
			if rng.Intn(2) == 0 {
				mutate()
			}
		}
	}

	for op := 0; op < ops; op++ {
		switch r := rng.Intn(100); {
		case r < 45:
			schedule(rng.Intn(3))
		case r < 55:
			mutate()
		case r < 65: // burst: push the pending set into ladder territory
			n := rng.Intn(2000)
			for i := 0; i < n; i++ {
				schedule(rng.Intn(2))
			}
		case r < 90: // drain a few
			n := rng.Intn(64) + 1
			for i := 0; i < n && s.Step(); i++ {
			}
		default: // RunUntil a random horizon, including exact event times
			var end Time
			if len(model.evs) > 0 && rng.Intn(2) == 0 {
				end = model.evs[rng.Intn(len(model.evs))].at
			} else {
				end = s.Now() + Time(rng.Intn(int(time.Second)))
			}
			s.RunUntil(end)
			if s.Now() != end {
				t.Fatalf("seed %d: RunUntil(%v) left clock at %v", seed, end, s.Now())
			}
			for len(model.evs) > 0 && model.evs[0].at <= end {
				t.Fatalf("seed %d: RunUntil(%v) skipped id %d due at %v",
					seed, end, model.evs[0].id, model.evs[0].at)
			}
		}
		if s.Pending() != len(model.evs) {
			t.Fatalf("seed %d op %d: Pending()=%d, model holds %d", seed, op, s.Pending(), len(model.evs))
		}
		if op%16 == 0 {
			checkLadder(t, s)
		}
	}
	// Drain completely: every remaining event must fire in model order.
	for s.Step() {
	}
	if len(model.evs) != 0 {
		t.Fatalf("seed %d: drained sim but model still holds %d events", seed, len(model.evs))
	}
}

// TestLadderVsReference is the always-on property test: a spread of fixed
// seeds covering small and large pending sets.
func TestLadderVsReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		ladderDiff(t, seed, 400)
	}
}

// TestLadderVsReferenceDeep pushes tens of thousands of pending events
// through many epochs — the regime where rung spawning, bucket overflow,
// and top spreading all recur.
func TestLadderVsReferenceDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("deep differential trace skipped in -short")
	}
	for seed := int64(100); seed < 103; seed++ {
		ladderDiff(t, seed, 3000)
	}
}

// TestLadderSpawnClampAtRungEnd pins the spawn-path span clamp with the
// exact geometry that broke it: a depth-1 rung whose ceil-rounded bucket
// width overshoots its true span (width 3 over a span of 100 → nominal
// coverage 102), whose last bucket is big enough to spawn a depth-2 child.
// Unclamped, the child's end() extends past the parent's endT into the
// window the coarser rung still holds events for, and a new arrival in
// that window (scheduled from a callback while the child drains) routes
// into the child and fires before the earlier-timestamped event waiting in
// the coarser rung — 1101ns before 1100ns, with Now() going backwards.
//
// The layout below is built entirely through the public API:
//
//   - 40 far-future events spread over [1000, 4999] so spreadTop builds
//     rungs[0] with width ceil(4000/40) = 100ns;
//   - 33 of them at t=1099 so rungs[0]'s bucket 0 (34 events) spawns
//     rungs[1] with width ceil(100/34) = 3ns, whose last bucket
//     [1099, 1102) ∩ span holds all 33 — enough to spawn rungs[2];
//   - one event at t=1100, sitting in rungs[0]'s bucket 1;
//   - the first t=1099 callback schedules t=1101, which must land in
//     rungs[0]'s bucket 1 behind the 1100 event, not in rungs[2].
func TestLadderSpawnClampAtRungEnd(t *testing.T) {
	s := New(1)
	var fired []Time
	record := func() { fired = append(fired, s.Now()) }

	var ats []Time
	add := func(at Time, fn func()) {
		s.At(at, fn)
		ats = append(ats, at)
	}

	add(1000, record)
	for i := 0; i < 33; i++ {
		fn := record
		if i == 0 {
			// First equal-time event to fire (lowest seq): schedule the
			// arrival into the overshoot window while rungs[2] drains.
			fn = func() {
				fired = append(fired, s.Now())
				s.At(1101, record)
			}
		}
		add(1099, fn)
	}
	add(1100, record)
	for _, at := range []Time{2000, 2500, 3000, 4000, 4999} {
		add(at, record)
	}
	ats = append(ats, 1101) // the callback-scheduled arrival

	s.Run()

	if len(fired) != len(ats) {
		t.Fatalf("fired %d events, scheduled %d", len(fired), len(ats))
	}
	sortTimes(ats)
	for i, at := range fired {
		if at != ats[i] {
			t.Fatalf("firing %d: got t=%v, want t=%v (full order %v)", i, at, ats[i], fired)
		}
		if i > 0 && at < fired[i-1] {
			t.Fatalf("time went backwards: t=%v fired after t=%v", at, fired[i-1])
		}
	}
}

func sortTimes(ts []Time) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}
}

// TestLadderDeepDrainArrivals is the randomized net over the same class of
// bug: fractally clustered timestamps force depth>=2 rungs with few-ns
// spans (where ceil-rounded widths overshoot constantly), and every firing
// callback schedules fresh events a few nanoseconds ahead — exactly the
// arrivals that land in a mis-clamped child rung's overshoot window. The
// general-purpose ladderDiff trace never hit this geometry because its
// arrival times are spread over milliseconds.
func TestLadderDeepDrainArrivals(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(seed)
		model := &refModel{}
		var seq uint64
		id := 0

		var onFire func()
		schedule := func(at Time) {
			evID := id
			id++
			s.At(at, onFire)
			model.insert(refEv{at: at, seq: seq, id: evID})
			seq++
		}
		onFire = func() {
			want := model.pop()
			if want.at != s.Now() {
				t.Fatalf("seed %d: fired at %v, model expected %v (seq %d)",
					seed, s.Now(), want.at, want.seq)
			}
			// Subcritical branching (mean 1/2 offspring per firing) so the
			// drain terminates quickly while still spraying arrivals into
			// whatever rung geometry is active at every depth.
			if rng.Intn(2) == 0 {
				schedule(s.Now() + Time(rng.Intn(4)))
			}
		}

		// Three nested cluster scales around fixed bases: the wide spread
		// fixes a coarse rungs[0] width, the µs cluster overflows one of
		// its buckets into rungs[1], and the ns cluster overflows one of
		// rungs[1]'s buckets into a 1ns-wide rungs[2].
		const base = Time(time.Millisecond)
		for i := 0; i < 1500; i++ {
			var at Time
			switch rng.Intn(10) {
			case 0, 1, 2:
				at = base + Time(rng.Intn(int(40*time.Millisecond)))
			case 3, 4, 5:
				at = base + Time(rng.Intn(int(40*time.Microsecond)))
			default:
				at = base + Time(rng.Intn(40))
			}
			schedule(at)
		}
		for s.Step() {
		}
		if len(model.evs) != 0 {
			t.Fatalf("seed %d: drained sim but model still holds %d events", seed, len(model.evs))
		}
	}
}

// checkLadder walks every tier and checks its links: each rung bucket's
// count is its list's length, every listed event names its rung, its
// bucket and its predecessor, every top event its slot, and the tiers
// together hold exactly Pending() events. It returns the number of
// entries in the rung tables, pooled rungs included.
func checkLadder(t *testing.T, s *Simulator) (entries int) {
	t.Helper()
	queued := len(s.bottom) + len(s.top)
	for loc, r := range s.rungs {
		if len(r.buckets) != r.used {
			t.Fatalf("rung %d: %d table entries for %d buckets", loc, len(r.buckets), r.used)
		}
		for i, b := range r.buckets {
			n := 0
			var prev *Event
			for ev := b.head; ev != nil; ev = ev.next {
				if ev.prev != prev || ev.loc != int32(loc) || ev.index != int32(i) {
					t.Fatalf("event seq %d in rung %d bucket %d: prev %p (want %p), loc %d, index %d",
						ev.seq, loc, i, ev.prev, prev, ev.loc, ev.index)
				}
				prev = ev
				n++
			}
			if int32(n) != b.n {
				t.Fatalf("rung %d bucket %d: list of %d events, count %d", loc, i, n, b.n)
			}
			queued += n
		}
	}
	for i, ev := range s.top {
		if ev.loc != locTop || ev.index != int32(i) || ev.next != nil || ev.prev != nil {
			t.Fatalf("top slot %d: event seq %d has loc %d, index %d, links %p %p",
				i, ev.seq, ev.loc, ev.index, ev.next, ev.prev)
		}
	}
	if queued != s.Pending() {
		t.Fatalf("tiers hold %d events, Pending() = %d", queued, s.Pending())
	}
	for _, r := range append(append([]*rung{}, s.rungs...), s.rungPool...) {
		entries += cap(r.buckets)
	}
	return entries
}

// TestLadderStorageTracksPending pins that the rungs keep no storage
// from a burst the queue has drained: 200,000 events in one epoch spread
// into maxRungBuckets buckets, and once they have fired, about 100 pending
// events run for several epochs. The rungs keep only their bucket tables
// (at most maxRungs × maxRungBuckets entries, a head and a count each) and
// no slot per event, the bottom heap holds a few promoted events, and
// every Event struct is pending or on the freelist. (The top slice, like
// the freelist, keeps the burst's length.)
func TestLadderStorageTracksPending(t *testing.T) {
	const burst, steady = 200_000, 100
	s := New(1)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < burst; i++ {
		s.At(time.Millisecond+Time(rng.Int63n(int64(time.Second))), func() {})
	}
	s.Step() // spreads the burst
	if len(s.rungs) == 0 || s.rungs[0].used != maxRungBuckets {
		t.Fatalf("burst spread into %d rungs, want rungs[0] of %d buckets", len(s.rungs), maxRungBuckets)
	}
	checkLadder(t, s)
	for s.Step() {
	}

	var rearm func()
	rearm = func() { s.After(Time(rng.Int63n(int64(100*time.Millisecond))), rearm) }
	for i := 0; i < steady; i++ {
		rearm()
	}
	epochs, top := 0, s.topStart
	for s.Now() < 10*time.Second {
		s.Step()
		if s.topStart != top {
			epochs, top = epochs+1, s.topStart
		}
	}
	if epochs < 5 {
		t.Fatalf("%d epochs, want at least 5", epochs)
	}

	limit := maxRungs * maxRungBuckets
	if entries := checkLadder(t, s); entries > limit {
		t.Fatalf("rung tables hold %d entries, want at most %d", entries, limit)
	}
	if c := cap(s.bottom); c > 4*ladderThresh {
		t.Fatalf("bottom heap keeps %d slots for %d pending events", c, s.Pending())
	}
	if n := len(s.free) + s.Pending(); n > burst+eventChunk {
		t.Fatalf("%d events pending or free after a %d-event burst", n, burst)
	}
}

// FuzzLadderVsHeap lets the fuzzer pick the trace seed and length. The
// corpus seeds replay the deterministic property traces; crashers shrink
// to a (seed, ops) pair that is trivially replayable in ladderDiff. Each
// seed cancels and reschedules events sitting in a rung bucket as its
// head, in its middle and as its only element, dozens of times or more
// each.
func FuzzLadderVsHeap(f *testing.F) {
	f.Add(int64(1), uint16(200))
	f.Add(int64(42), uint16(800))
	f.Add(int64(7777), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, ops uint16) {
		ladderDiff(t, seed, int(ops)%4000)
	})
}
