package rcommon

import (
	"testing"
	"time"

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

func TestSeqWraparound(t *testing.T) {
	if !SeqGT(1, 0) || SeqGT(0, 1) || !SeqGE(1, 1) {
		t.Fatal("basic ordering broken")
	}
	// Freshness survives rollover: 3 is fresher than MaxUint32-2, not the
	// other way round.
	if !SeqGT(3, ^uint32(0)-2) || SeqGT(^uint32(0)-2, 3) || !SeqGE(3, ^uint32(0)-2) {
		t.Fatal("wraparound comparison broken")
	}
}
