// Package walltime holds fixtures for the walltime analyzer: wall-clock
// reads, global math/rand draws and math/rand.NewSource are flagged, draws
// from a seeded stream and time's pure value surface stay legal.
package walltime

import (
	"math/rand"
	"time"
)

func badClock() time.Time {
	return time.Now() // want `time\.Now reads the wall clock`
}

func badElapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time\.Since reads the wall clock`
}

func badSleep() {
	time.Sleep(time.Millisecond) // want `time\.Sleep reads the wall clock`
}

func badGlobalRand() int {
	return rand.Intn(4) // want `rand\.Intn uses the global math/rand generator`
}

func badGlobalFloat() float64 {
	return rand.Float64() // want `rand\.Float64 uses the global math/rand generator`
}

// badEagerSource builds a stream with math/rand's eager seeding instead
// of sim.NewRand.
func badEagerSource(seed int64) float64 {
	r := rand.New(rand.NewSource(seed)) // want `rand\.NewSource seeds .* sim\.NewRand\(seed\)`
	return r.Float64()
}

// okSeeded is the sanctioned path: draws from a stream handed in by the
// simulation.
func okSeeded(r *rand.Rand) float64 {
	return r.Float64()
}

// okDuration uses time's value surface only — no clock reads.
func okDuration(ticks int64) time.Duration {
	return time.Duration(ticks) * time.Millisecond
}

// allowedMeter documents a deliberate wall-clock use outside the
// allowlisted daemon packages.
func allowedMeter() time.Time {
	//slrlint:allow walltime progress meter timestamps never reach trial output
	return time.Now()
}
