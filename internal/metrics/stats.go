package metrics

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator).
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// tTable95 holds two-sided 95% Student t critical values for 1..30 degrees
// of freedom; beyond 30 the normal approximation 1.96 is used.
var tTable95 = []float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the 95% confidence interval of the mean of
// xs, using the Student t distribution (the paper reports 95% CIs on all
// figures and in Table I).
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	t := 1.96
	if df := n - 1; df <= len(tTable95) {
		t = tTable95[df-1]
	}
	return t * StdDev(xs) / math.Sqrt(float64(n))
}

// Series is a set of trial measurements for one data point. Undefined
// measurements (NaN, e.g. Collector.NetworkLoad's zero-delivery sentinel)
// are excluded from the aggregates and counted in NaNs, so one broken
// trial flags the data point instead of silently skewing its mean.
type Series struct {
	Values []float64
	// NaNs counts measurements excluded because they were NaN.
	NaNs int
}

// Add appends a measurement; NaN is counted in NaNs and otherwise ignored.
func (s *Series) Add(v float64) {
	if math.IsNaN(v) {
		s.NaNs++
		return
	}
	s.Values = append(s.Values, v)
}

// Mean returns the series mean.
func (s *Series) Mean() float64 { return Mean(s.Values) }

// CI returns the 95% confidence half-width.
func (s *Series) CI() float64 { return CI95(s.Values) }
