package srp

import (
	"testing"
	"time"

	"slr/internal/frac"
	"slr/internal/label"
	"slr/internal/sim"
)

func TestBestPrefersMinDistance(t *testing.T) {
	r := &route{succ: []successor{
		{id: 1, dist: 3, expiry: sim.Time(10 * time.Second)},
		{id: 2, dist: 1, expiry: sim.Time(10 * time.Second)},
		{id: 3, dist: 2, expiry: sim.Time(10 * time.Second)},
	}}
	got, ok := r.best(0)
	if !ok || got != 2 {
		t.Fatalf("best = %v, want 2", got)
	}
}

func TestBestSkipsExpired(t *testing.T) {
	now := sim.Time(5 * time.Second)
	r := &route{succ: []successor{
		{id: 1, dist: 1, expiry: sim.Time(time.Second)}, // expired
		{id: 2, dist: 9, expiry: sim.Time(time.Minute)},
	}}
	got, ok := r.best(now)
	if !ok || got != 2 {
		t.Fatalf("best = %v, want 2", got)
	}
	if r.find(1) != nil {
		t.Fatal("expired successor not reaped")
	}
	if r.active(now) != true {
		t.Fatal("route with live successor not active")
	}
}

func TestBestTieBreaksByID(t *testing.T) {
	r := &route{succ: []successor{
		{id: 7, dist: 2, expiry: sim.Time(time.Minute)},
		{id: 3, dist: 2, expiry: sim.Time(time.Minute)},
	}}
	got, _ := r.best(0)
	if got != 3 {
		t.Fatalf("best = %v, want 3 (lowest id)", got)
	}
}

func TestDropSuccessorInvalidates(t *testing.T) {
	r := &route{succ: []successor{
		{id: 1, dist: 1, expiry: sim.Time(time.Minute)},
	}}
	if invalid := r.dropSuccessor(1, 0); !invalid {
		t.Fatal("dropping last successor must invalidate")
	}
	if r.active(0) {
		t.Fatal("route still active")
	}
}

func TestPruneOutOfOrder(t *testing.T) {
	g := label.Order{SN: 2, FD: frac.MustNew(1, 2)}
	r := &route{succ: []successor{
		// In order: g ≺ stored (stored fraction below 1/2, same sn).
		{id: 1, order: label.Order{SN: 2, FD: frac.MustNew(1, 3)}, expiry: sim.Time(time.Minute)},
		// Out of order: larger fraction.
		{id: 2, order: label.Order{SN: 2, FD: frac.MustNew(2, 3)}, expiry: sim.Time(time.Minute)},
		// Out of order: stale sequence number.
		{id: 3, order: label.Order{SN: 1, FD: frac.MustNew(1, 4)}, expiry: sim.Time(time.Minute)},
	}}
	pruned := r.pruneOutOfOrder(g)
	if pruned != 2 {
		t.Fatalf("pruned %d, want 2", pruned)
	}
	if r.find(1) == nil {
		t.Fatal("in-order successor pruned")
	}
}
