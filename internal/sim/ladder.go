package sim

// This file implements the ladder queue behind the Simulator API: a
// multi-tier event structure that keeps enqueue/dequeue O(1) amortized for
// the dense near-future timer traffic of a large simulation (MAC
// retransmit/backoff, ACK timeouts, beacons, mobility ticks) while the
// firing order stays the exact (at, seq) total order of the original heap.
//
// Tiers, nearest first:
//
//   - bottom: the original indexed 4-ary min-heap, restricted to the few
//     events promoted from the current bucket. All global pops come from
//     here, so the FIFO tie-break among equal times is enforced by the
//     same comparator the heap-only scheduler used.
//   - rungs: bucket arrays. rungs[0] is the wheel spread over the current
//     epoch's span; rungs[r+1] is a finer wheel spawned from one oversized
//     bucket of rungs[r]. A bucket is an unordered doubly linked list
//     threaded through Event.next/prev, plus a count, as in Tang, Goh and
//     Thng's ladder queue (ACM TOMACS 2005). Inserting into a rung is O(1):
//     index the bucket, link at its head; removing is an O(1) unlink.
//   - top: an unsorted overflow list (a slice) for events at or past the
//     current epoch (at >= topStart). Insertion is O(1); the list is
//     spread into a fresh rungs[0] when everything nearer has drained.
//
// Storage: bucket lists live in the events themselves, so a rung keeps one
// head pointer and one count per bucket (at most maxRungBuckets, pooled)
// and no slot per event. The bottom heap holds the few promoted events
// and the top slice one epoch's overflow, bounded like the freelist by
// the peak pending count: queue storage never keeps the history of a
// bucket's peak occupancy.
//
// Time partition invariant (left to right, earliest to latest):
//
//	bottom < lowBound <= rung events < topStart <= top events
//
// where lowBound is the consumption boundary: the start of the finest
// rung's first unconsumed bucket. New events route by comparing `at`
// against lowBound and topStart, so the partition is maintained without
// ever scanning a tier.
//
// Promotion (refill) runs when bottom drains: the finest rung's next
// non-empty bucket either dumps into bottom (<= ladderThresh events, or
// the bucket is unsplittable) or spawns a finer rung sized so the expected
// occupancy is ~1 event per bucket. Each event is therefore touched O(1)
// times on its way down (ladder property: occupancy shrinks geometrically
// with each spawn), and the bottom heap stays small, so its log cost is a
// small constant rather than log of the total pending count.
//
// Degradation to heap behavior: when the pending set is tiny (<=
// ladderThresh), or a bucket cannot be split further (all events at one
// timestamp, bucket width already 1ns, or maxRungs reached), the events
// are simply pushed into the bottom heap — exactly the pre-ladder
// scheduler. Correctness never depends on the bucket geometry; only the
// constant factors do.
//
// Why the ladder stays: it was measured against the heap-only scheduler
// (schedule always bottomPush, refill just len(bottom) > 0) in
// cmd/slrbench's end-to-end mode, 20 s per run, seeds 1–10 in
// alternating order on a 2-vCPU host. On table1-mid heap-only costs
// 1.06× the ladder's cpu_us_per_frame (winning 0 of 10 pairs; a 0.44 µs
// gap against the ladder's 0.39 µs IQR) and 1.08× its wall_us_per_frame
// (winning 1 of 10). On flood-5000 it costs 1.06–1.07×, inside the IQR;
// on olsr-1000 and city-500 the two are level. A second batch on the same
// host found a smaller gap, heap-only at 1.02× both per-frame times on
// table1-mid (3 of 10 wins) and 1.01–1.02× on flood-5000 (3–4 of 10),
// all inside the ladder's IQR. Heap-only never won on time. Its
// peak_mem_mb is 0.93–0.99× the ladder's (flood-5000: 0.95×, 10 of 10,
// a 7 MB gap inside the 9 MB IQR), too small a saving to pay for the CPU.
const (
	// ladderThresh is the bucket size at or below which promotion dumps
	// straight into the bottom heap instead of spawning a finer rung.
	ladderThresh = 32
	// maxRungBuckets caps any rung's bucket count (bounds memory for
	// million-event epochs; deeper rungs absorb the excess occupancy).
	maxRungBuckets = 1 << 15
	// maxRungs bounds the ladder depth; beyond it buckets dump to bottom.
	maxRungs = 8
	// minBucketWidth is the finest bucket granularity. Time is integer
	// nanoseconds, so a 1ns bucket can only hold equal-time events, which
	// no split can separate — the bottom heap's (at, seq) comparator
	// orders them instead.
	minBucketWidth = Time(1)
)

// Event location tags (Event.loc). Values >= 0 index s.rungs.
const (
	locNone   int32 = -1 // not queued (free, fired, or canceled)
	locBottom int32 = -2 // in the bottom heap; Event.index is the heap slot
	locTop    int32 = -3 // in the top list; Event.index is the slot
)

// rung is one bucket array of the ladder: buckets of `width` covering
// [start, start + used*width). Buckets before cur are consumed (empty).
// Rungs and their bucket tables are pooled per Simulator, so steady-state
// epochs allocate nothing once warm.
type rung struct {
	start Time
	width Time
	// endT is the exact end of the region this rung covers: start + the
	// span it was spawned for. It is NOT start + used*width — the ceil
	// rounding of the bucket width can make used*width overshoot the
	// span, and treating that overshoot as covered would advance the
	// consumption boundary (lowBound) into a region the parent rung still
	// holds events for, breaking FIFO at the boundary timestamps.
	endT    Time
	cur     int
	used    int
	buckets []bucket
}

// bucket is an unordered doubly linked list of events, threaded through
// their next and prev fields, and its length. Head and count share one
// table entry, so an insert touches the entry, the event and the old
// head, and a rung stores nothing per event.
type bucket struct {
	head *Event
	n    int32
}

func (r *rung) end() Time { return r.endT }

// reset prepares a pooled rung for a new span of `used` empty buckets.
func (r *rung) reset(start, end, width Time, used int) {
	r.start, r.endT, r.width, r.used, r.cur = start, end, width, used, 0
	if used > cap(r.buckets) {
		// Doubling keeps a slowly growing epoch from reallocating each time.
		r.buckets = make([]bucket, min(max(used, 2*cap(r.buckets)), maxRungBuckets))
	}
	r.buckets = r.buckets[:used]
	clear(r.buckets)
}

// add links ev at the head of bucket i of the rung at s.rungs[loc].
func (r *rung) add(loc int32, i int, ev *Event) {
	b := &r.buckets[i]
	ev.loc, ev.index, ev.next, ev.prev = loc, int32(i), b.head, nil
	if b.head != nil {
		b.head.prev = ev
	}
	b.head = ev
	b.n++
}

// remove unlinks ev from its bucket.
func (r *rung) remove(ev *Event) {
	b := &r.buckets[ev.index]
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		b.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	ev.next, ev.prev = nil, nil
	b.n--
}

// schedule routes ev into the tier its deadline belongs to. The event's
// at and seq must already be set.
func (s *Simulator) schedule(ev *Event) {
	if s.check != nil {
		s.check.push(ev.at, ev.seq)
	}
	s.npend++
	at := ev.at
	if at >= s.topStart {
		ev.loc, ev.index = locTop, int32(len(s.top))
		s.top = append(s.top, ev)
		return
	}
	if at < s.lowBound || len(s.rungs) == 0 {
		s.bottomPush(ev)
		return
	}
	// Finest rung first: the unconsumed regions of the rung stack tile
	// [lowBound, topStart) contiguously, finest nearest, so the first rung
	// whose span contains `at` is the right one.
	for i := len(s.rungs) - 1; i >= 0; i-- {
		r := s.rungs[i]
		if at >= r.end() && i > 0 {
			continue
		}
		r.add(int32(i), int((at-r.start)/r.width), ev)
		return
	}
	panic("sim: unreachable — rung walk found no tier")
}

// unlink removes a still-queued event from whatever tier holds it, without
// releasing the node. Top removal is an O(1) swap-remove and rung removal
// an O(1) list unlink (order within a tier is irrelevant — ordering
// happens in the bottom heap); bottom removal is the indexed heap delete.
func (s *Simulator) unlink(ev *Event) {
	if s.check != nil {
		s.check.deleted[ev.seq] = struct{}{}
	}
	s.npend--
	switch ev.loc {
	case locBottom:
		s.bottomRemove(int(ev.index))
	case locTop:
		i := int(ev.index)
		last := len(s.top) - 1
		moved := s.top[last]
		s.top[i] = moved
		moved.index = int32(i)
		s.top[last] = nil
		s.top = s.top[:last]
	default:
		s.rungs[ev.loc].remove(ev)
	}
	ev.loc = locNone
}

// refill promotes events toward the bottom heap until it is non-empty,
// reporting whether any event is pending at all. It never fires anything,
// so it is safe to call from peeks (RunUntil) as well as Step.
func (s *Simulator) refill() bool {
	for len(s.bottom) == 0 {
		if n := len(s.rungs); n > 0 {
			r := s.rungs[n-1]
			for r.cur < r.used && r.buckets[r.cur].head == nil {
				r.cur++
			}
			if r.cur == r.used {
				// Rung exhausted; recycle it, and advance the consumption
				// boundary to its end. If the rung's trailing buckets were
				// empty, lowBound still sits at the last bucket actually
				// promoted — leaving it there would route later arrivals in
				// [lowBound, r.end()) into the next-coarser rung's already
				// consumed bucket, stranding them (they'd never be scanned
				// again and would violate FIFO at their timestamp).
				s.lowBound = r.end()
				s.rungs = s.rungs[:n-1]
				s.rungPool = append(s.rungPool, r)
				continue
			}
			b := r.buckets[r.cur]
			r.buckets[r.cur] = bucket{}
			bStart := r.start + Time(r.cur)*r.width
			r.cur++
			if b.n <= ladderThresh || r.width <= minBucketWidth || len(s.rungs) >= maxRungs {
				// Small or unsplittable bucket: order it in the bottom
				// heap (the degraded-to-heap path). The last bucket's
				// nominal end can overshoot the rung's true span (ceil
				// rounding); clamp so lowBound never crosses into the
				// parent rung's still-pending region.
				s.lowBound = min(bStart+r.width, r.endT)
				for ev := b.head; ev != nil; {
					next := ev.next
					ev.next, ev.prev = nil, nil
					s.bottomPush(ev)
					ev = next
				}
			} else {
				// Oversized bucket: spawn a finer rung across its span. Like
				// the dump path above, the last bucket's nominal width can
				// overshoot the rung's true span (ceil rounding); clamp the
				// child's span to r.endT, or the child would claim a window
				// the next-coarser rung still holds events for, and new
				// arrivals in that window would fire ahead of them.
				child, loc := s.spawnRung(bStart, min(r.width, r.endT-bStart), int(b.n))
				for ev := b.head; ev != nil; {
					next := ev.next
					child.add(loc, int((ev.at-bStart)/child.width), ev)
					ev = next
				}
				s.lowBound = bStart
			}
			continue
		}
		if len(s.top) == 0 {
			return false
		}
		s.spreadTop()
	}
	return true
}

// spawnRung pushes a fresh finest rung over [start, start+span), sized
// for ~1 of its n events per bucket, and returns it with its index in
// s.rungs.
func (s *Simulator) spawnRung(start, span Time, n int) (*rung, int32) {
	nb := min(n, maxRungBuckets)
	width := max((span+Time(nb)-1)/Time(nb), minBucketWidth)
	used := int((span + width - 1) / width)
	r := s.getRung(start, start+span, width, used)
	s.rungs = append(s.rungs, r)
	return r, int32(len(s.rungs) - 1)
}

// spreadTop starts a new epoch: the overflow list becomes rungs[0], a
// wheel across the list's exact [min, max] span, and topStart moves past
// it. Called only when bottom and all rungs are empty. A small overflow
// skips the wheel entirely and heaps directly — the sparse-queue fast
// path (and the other degraded-to-heap case). The list stays a slice:
// both passes over it load events whose addresses are known up front.
func (s *Simulator) spreadTop() {
	lo, hi := s.top[0].at, s.top[0].at
	for _, ev := range s.top[1:] {
		lo, hi = min(lo, ev.at), max(hi, ev.at)
	}
	s.topStart = hi + 1
	if len(s.top) <= ladderThresh {
		for _, ev := range s.top {
			s.bottomPush(ev)
		}
		s.lowBound = hi + 1
	} else {
		r, loc := s.spawnRung(lo, hi-lo+1, len(s.top))
		for _, ev := range s.top {
			r.add(loc, int((ev.at-lo)/r.width), ev)
		}
		s.lowBound = lo
	}
	clear(s.top)
	s.top = s.top[:0]
}

// getRung takes a rung from the pool (or allocates one) and sizes it for
// the region [start, end).
func (s *Simulator) getRung(start, end, width Time, used int) *rung {
	var r *rung
	if n := len(s.rungPool); n > 0 {
		r = s.rungPool[n-1]
		s.rungPool = s.rungPool[:n-1]
	} else {
		r = &rung{}
	}
	r.reset(start, end, width, used)
	return r
}

// --- bottom tier: the original indexed 4-ary min-heap ------------------

// arity is the heap branching factor. Four keeps the tree half as deep as
// a binary heap; sift-down scans up to four children in one cache line of
// pointers, which profiles faster than the extra depth costs.
const arity = 4

// less orders events by (at, seq): earliest first, FIFO among equals.
// This comparator alone decides the global firing order — every event
// reaches the bottom heap before it can fire.
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Simulator) bottomPush(ev *Event) {
	ev.loc = locBottom
	ev.index = int32(len(s.bottom))
	s.bottom = append(s.bottom, ev)
	s.siftUp(int(ev.index))
}

func (s *Simulator) bottomPop() *Event {
	root := s.bottom[0]
	n := len(s.bottom) - 1
	last := s.bottom[n]
	s.bottom[n] = nil
	s.bottom = s.bottom[:n]
	if n > 0 {
		s.bottom[0] = last
		last.index = 0
		s.siftDown(0)
	}
	root.loc = locNone
	s.npend--
	return root
}

// bottomRemove deletes the node at position i, restoring heap order around
// the displaced tail node.
func (s *Simulator) bottomRemove(i int) {
	n := len(s.bottom) - 1
	last := s.bottom[n]
	s.bottom[n] = nil
	s.bottom = s.bottom[:n]
	if i < n {
		s.bottom[i] = last
		last.index = int32(i)
		if !s.siftDown(i) {
			s.siftUp(i)
		}
	}
}

func (s *Simulator) siftUp(i int) {
	ev := s.bottom[i]
	for i > 0 {
		parent := (i - 1) / arity
		p := s.bottom[parent]
		if !less(ev, p) {
			break
		}
		s.bottom[i] = p
		p.index = int32(i)
		i = parent
	}
	s.bottom[i] = ev
	ev.index = int32(i)
}

// siftDown moves the node at i toward the leaves; it reports whether the
// node moved.
func (s *Simulator) siftDown(i int) bool {
	ev := s.bottom[i]
	start := i
	n := len(s.bottom)
	for {
		first := i*arity + 1
		if first >= n {
			break
		}
		best := first
		end := first + arity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(s.bottom[c], s.bottom[best]) {
				best = c
			}
		}
		if !less(s.bottom[best], ev) {
			break
		}
		s.bottom[i] = s.bottom[best]
		s.bottom[i].index = int32(i)
		i = best
	}
	s.bottom[i] = ev
	ev.index = int32(i)
	return i != start
}
