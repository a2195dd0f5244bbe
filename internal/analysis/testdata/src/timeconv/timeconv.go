// Package timeconv holds fixtures for the timeconv analyzer: a float
// converted to sim.Time or time.Duration is flagged, integer and constant
// conversions and the converters in sim stay legal.
package timeconv

import (
	"time"

	"sim"
)

func badSeconds(v float64) sim.Time {
	return sim.Time(v * float64(time.Second)) // want `sim\.Time of a float wraps past its range`
}

func badDuration(ns float64) time.Duration {
	return time.Duration(ns) // want `time\.Duration of a float wraps`
}

func badFloat32(ns float32) sim.Time {
	return (sim.Time)(ns) // want `\(sim\.Time\) of a float wraps`
}

// nanos is a named float type: its underlying type is what counts.
type nanos float64

func badNamedFloat(n nanos) time.Duration {
	return time.Duration(n) // want `time\.Duration of a float wraps`
}

// okInteger converts an integer count, which cannot be fractional or NaN.
func okInteger(ticks int64) sim.Time {
	return sim.Time(ticks) * sim.Time(time.Millisecond)
}

// okConstant is checked by the compiler: a constant that is not a whole
// number in range does not compile.
func okConstant() time.Duration {
	const half = 0.5e9
	return time.Duration(1.5e9) + time.Duration(half)
}

// okBack converts the other way, Time to float.
func okBack(t sim.Time) float64 {
	return float64(t) / 1e9
}

// okConverters goes through sim's saturating converter.
func okConverters(ns float64) sim.Time {
	return sim.Span(ns)
}

func allowed(v float64) time.Duration {
	//slrlint:allow timeconv the caller bounds v to [0, 1]
	return time.Duration(v * float64(time.Second))
}

func allowedNoReason(v float64) time.Duration {
	return time.Duration(v) //slrlint:allow timeconv // want `needs a non-empty reason` `time\.Duration of a float wraps`
}
