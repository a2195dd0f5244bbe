package sim

// Shadow order checker: an independently maintained binary heap of
// (at, seq) keys with lazy deletion, verified against every fired event.
// It exists for differential debugging and the in-tree scheduler gate
// (TestLadderShadowedScenario in the repo root): enable it on a Simulator
// and any deviation of the ladder's firing order from the reference
// (at, seq) total order panics at the first divergent event, with the
// expected and actual keys.

type shadowKey struct {
	at  Time
	seq uint64
}

type shadowChecker struct {
	heap    []shadowKey
	deleted map[uint64]struct{} // seqs unlinked before firing
	s       *Simulator
}

// EnableOrderCheck attaches a shadow reference queue to the simulator:
// every subsequent schedule/unlink/fire is mirrored and each fired event
// is checked to be the global (at, seq) minimum. Costs O(log n) per
// operation; for tests only.
func (s *Simulator) EnableOrderCheck() {
	s.check = &shadowChecker{deleted: make(map[uint64]struct{}), s: s}
}

// locate reports which tier currently holds the event with the given seq,
// plus the tier boundaries — forensic context for an OrderViolation.
func (c *shadowChecker) locate(seq uint64) string {
	s := c.s
	out := "lowBound=" + s.lowBound.String() + " topStart=" + s.topStart.String()
	for i, r := range s.rungs {
		out += " rung[" + itoa(uint64(i)) + "]{start=" + r.start.String() +
			" width=" + r.width.String() + " cur=" + itoa(uint64(r.cur)) +
			" used=" + itoa(uint64(r.used)) + "}"
	}
	find := func(ev *Event) bool { return ev != nil && ev.seq == seq }
	for _, ev := range s.bottom {
		if find(ev) {
			return out + "; seq in bottom"
		}
	}
	for i, r := range s.rungs {
		for bi := 0; bi < r.used; bi++ {
			for ev := r.buckets[bi].head; ev != nil; ev = ev.next {
				if find(ev) {
					return out + "; seq in rung " + itoa(uint64(i)) + " bucket " +
						itoa(uint64(bi)) + " (cur " + itoa(uint64(r.cur)) + ") at=" + ev.at.String()
				}
			}
		}
	}
	for _, ev := range s.top {
		if find(ev) {
			return out + "; seq in top"
		}
	}
	return out + "; seq NOT FOUND in any tier"
}

func (c *shadowChecker) push(at Time, seq uint64) {
	c.heap = append(c.heap, shadowKey{at, seq})
	i := len(c.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !c.less(i, p) {
			break
		}
		c.heap[i], c.heap[p] = c.heap[p], c.heap[i]
		i = p
	}
}

func (c *shadowChecker) less(i, j int) bool {
	a, b := c.heap[i], c.heap[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (c *shadowChecker) pop() shadowKey {
	top := c.heap[0]
	n := len(c.heap) - 1
	c.heap[0] = c.heap[n]
	c.heap = c.heap[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && c.less(l, m) {
			m = l
		}
		if r < n && c.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		c.heap[i], c.heap[m] = c.heap[m], c.heap[i]
		i = m
	}
	return top
}

// fire verifies ev is the reference minimum among live shadow entries.
func (c *shadowChecker) fire(ev *Event) {
	for len(c.heap) > 0 {
		top := c.heap[0]
		if _, dead := c.deleted[top.seq]; dead {
			delete(c.deleted, top.seq)
			c.pop()
			continue
		}
		if top.at != ev.at || top.seq != ev.seq {
			panic(&OrderViolation{WantAt: top.at, WantSeq: top.seq, GotAt: ev.at, GotSeq: ev.seq,
				Detail: c.locate(top.seq)})
		}
		c.pop()
		return
	}
	panic(&OrderViolation{GotAt: ev.at, GotSeq: ev.seq})
}

// OrderViolation reports the first event the scheduler fired out of
// (at, seq) order, as seen by the shadow checker.
type OrderViolation struct {
	WantAt  Time
	WantSeq uint64
	GotAt   Time
	GotSeq  uint64
	Detail  string
}

func (o *OrderViolation) Error() string {
	return "sim: order violation: fired (" + o.GotAt.String() + ", seq " +
		itoa(o.GotSeq) + "), reference minimum is (" + o.WantAt.String() +
		", seq " + itoa(o.WantSeq) + "); " + o.Detail
}

func itoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
