package rcommon

import (
	"math/rand"
	"testing"
	"time"

	"slr/internal/netstack"
	"slr/internal/sim"
)

func TestRateLimiterWindow(t *testing.T) {
	rl := RateLimiter{Cap: 2}
	now := sim.Time(0)
	if !rl.Allow(now) || !rl.Allow(now) {
		t.Fatal("first two events must pass")
	}
	if rl.Allow(now + 500*time.Millisecond) {
		t.Fatal("third event inside the window must be rejected")
	}
	if !rl.Allow(now + time.Second) {
		t.Fatal("event after the window must pass")
	}
	unlimited := RateLimiter{}
	for i := 0; i < 100; i++ {
		if !unlimited.Allow(0) {
			t.Fatal("non-positive cap must disable the limiter")
		}
	}
}

func TestNeighborTableLiveness(t *testing.T) {
	nt := NewNeighborTable()
	nb := nt.Touch(3, 6*time.Second)
	nb.Sym = true
	nb.TwoHop = append(nb.TwoHop, 9)
	if nt.Get(3) != nb {
		t.Fatal("Touch must create and return the entry")
	}
	if same := nt.Touch(3, 8*time.Second); same != nb {
		t.Fatal("Touch must reuse the existing entry")
	}
	if nb.Expiry != 8*time.Second || !nb.Sym || len(nb.TwoHop) != 1 {
		t.Fatalf("Touch must extend liveness and keep the rest: %+v", *nb)
	}
	if nt.Expire(3 * time.Second) {
		t.Fatal("nothing is due at 3s")
	}
	if !nt.Expire(9*time.Second) || nt.Len() != 0 || nt.Get(3) != nil {
		t.Fatal("hello-silent neighbor must age out")
	}
	if nt.Remove(3) {
		t.Fatal("removing an absent neighbor must report false")
	}
	nt.Touch(5, time.Second)
	if !nt.Remove(5) || nt.Len() != 0 {
		t.Fatal("link-layer removal must drop the entry immediately")
	}

	// A sweep raises the horizon to the earliest deadline it saw; a Touch
	// with an earlier deadline must lower it again, or the early return
	// would hide that entry's expiry from the next sweep.
	nt.Touch(6, 20*time.Second)
	if nt.Expire(2 * time.Second) {
		t.Fatal("nothing should expire at 2s")
	}
	nt.Touch(7, 10*time.Second)
	if !nt.Expire(11*time.Second) || nt.Get(7) != nil || nt.Get(6) == nil {
		t.Fatal("an entry touched after a sweep must be swept once due")
	}
}

// TestNeighborTableExpireWhileWalking fills a table in scrambled id order
// with scrambled deadlines and expires it in steps. Expire deletes while it
// walks the slots down, so each deletion moves a visited entry into the
// hole; every survivor must still be found under its own id with its own
// contents, and every due entry must be gone.
func TestNeighborTableExpireWhileWalking(t *testing.T) {
	const n = 300
	nt := NewNeighborTable()
	expiry := make(map[netstack.NodeID]sim.Time)
	rng := rand.New(rand.NewSource(5))
	for _, i := range rng.Perm(n) {
		id := netstack.NodeID(i)
		exp := sim.Time(1+rng.Intn(50)) * time.Second
		nb := nt.Touch(id, exp)
		nb.TwoHop = append(nb.TwoHop, id, id+1)
		nb.TwoHopMax = id + 1
		expiry[id] = exp
	}
	for now := sim.Time(0); now < 57*time.Second; now += 7 * time.Second {
		nt.Expire(now)
		live := 0
		for i := range n {
			id := netstack.NodeID(i)
			nb := nt.Get(id)
			if due := expiry[id] <= now; due != (nb == nil) {
				t.Fatalf("at %v: id %d (expiry %v) present = %v", now, id, expiry[id], nb != nil)
			}
			if nb == nil {
				continue
			}
			live++
			if nb.Expiry != expiry[id] || len(nb.TwoHop) != 2 || nb.TwoHop[0] != id || nb.TwoHopMax != id+1 {
				t.Fatalf("at %v: id %d holds another entry's contents: %+v", now, id, *nb)
			}
		}
		if nt.Len() != live {
			t.Fatalf("at %v: Len = %d, %d live", now, nt.Len(), live)
		}
		for i := range nt.Len() {
			if id, nb := nt.At(i); nt.Get(id) != nb {
				t.Fatalf("at %v: slot %d (id %d) is not what Get finds", now, i, id)
			}
		}
	}
	if nt.Len() != 0 {
		t.Fatalf("%d entries outlived every deadline", nt.Len())
	}
}

func TestSeqWraparound(t *testing.T) {
	if !SeqGT(1, 0) || SeqGT(0, 1) || !SeqGE(1, 1) {
		t.Fatal("basic ordering broken")
	}
	// Freshness survives rollover: 3 is fresher than MaxUint32-2.
	if !SeqGT(3, ^uint32(0)-2) {
		t.Fatal("wraparound comparison broken")
	}
}

func TestSeconds(t *testing.T) {
	if Seconds(2.5) != 2500*time.Millisecond {
		t.Fatalf("Seconds(2.5) = %v", Seconds(2.5))
	}
}
