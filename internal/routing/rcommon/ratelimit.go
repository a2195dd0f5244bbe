package rcommon

import (
	"time"

	"slr/internal/sim"
)

// RateLimiter is the sliding-window origination cap of the AODV framework
// (RREQ_RATELIMIT / RERR_RATELIMIT): at most Cap events in any one second,
// enforced over the exact timestamps of the recent events. A non-positive
// Cap, as in the zero value, disables the limiter.
type RateLimiter struct {
	Cap    int
	recent []sim.Time
}

// Allow reports whether an event may fire now, recording it when allowed.
func (r *RateLimiter) Allow(now sim.Time) bool {
	if r.Cap <= 0 {
		return true
	}
	kept := r.recent[:0]
	for _, t := range r.recent {
		if now-t < time.Second {
			kept = append(kept, t)
		}
	}
	r.recent = kept
	if len(kept) >= r.Cap {
		return false
	}
	r.recent = append(r.recent, now)
	return true
}
