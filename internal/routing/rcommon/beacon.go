package rcommon

import (
	"slr/internal/netstack"
	"slr/internal/sim"
)

// Beaconer drives one periodic control schedule — HELLO broadcasts, TC
// floods, state sweeps — re-arming a single pooled sim timer in place
// (sim.Reschedule) instead of allocating a fresh event per period.
//
// Each tick runs fire() first and then draws the next gap from next(), so
// a protocol whose period carries jitter consumes its RNG at exactly the
// same point in the event sequence as the hand-rolled
// "fire; After(interval+jitter, tick)" loops the Beaconer replaces.
type Beaconer struct {
	node  *netstack.Node
	timer sim.Timer
	fire  func()
	// next draws each gap; when it is nil the gap is every.
	next  func() sim.Time
	every sim.Time
	tick  func()
}

// Start schedules the first beacon `initial` from now, then fires every
// next() thereafter. Starting an already-running Beaconer is a no-op, so
// protocol Start methods are idempotent for free.
func (b *Beaconer) Start(n *netstack.Node, initial sim.Time, next func() sim.Time, fire func()) {
	b.start(n, initial, next, 0, fire)
}

// StartEvery runs fire every fixed interval, first firing `interval` from
// now — the shape of the periodic state sweeps.
func (b *Beaconer) StartEvery(n *netstack.Node, interval sim.Time, fire func()) {
	b.start(n, interval, nil, interval, fire)
}

func (b *Beaconer) start(n *netstack.Node, initial sim.Time, next func() sim.Time, every sim.Time, fire func()) {
	if b.node != nil {
		return
	}
	b.node, b.next, b.every, b.fire = n, next, every, fire
	b.tick = func() {
		b.fire()
		gap := b.every
		if b.next != nil {
			gap = b.next()
		}
		b.timer = b.node.RescheduleAfter(b.timer, gap, b.tick)
	}
	b.timer = n.After(initial, b.tick)
}
