package metrics

import (
	"math"
	"testing"
	"time"
)

func TestCollectorRatios(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 10; i++ {
		c.Sent(1)
	}
	for i := 0; i < 8; i++ {
		lat := time.Duration(i+1) * 100 * time.Millisecond
		c.Delivered(1, time.Duration(i)*time.Second+lat, lat, 3)
	}
	c.Control(64)
	c.Control(64)
	c.Control(64)
	c.Control(64)

	if got := c.DeliveryRatio(); got != 0.8 {
		t.Errorf("DeliveryRatio = %v, want 0.8", got)
	}
	if got := c.NetworkLoad(); got != 0.5 {
		t.Errorf("NetworkLoad = %v, want 0.5", got)
	}
	// Latencies 0.1..0.8 s mean 0.45 s.
	if got := c.MeanLatency(); math.Abs(got-0.45) > 1e-9 {
		t.Errorf("MeanLatency = %v, want 0.45", got)
	}
	if got := c.MeanHops(); got != 3 {
		t.Errorf("MeanHops = %v, want 3", got)
	}
	if c.ControlBytes != 256 {
		t.Errorf("ControlBytes = %d, want 256", c.ControlBytes)
	}
}

func TestCollectorEmpty(t *testing.T) {
	c := NewCollector()
	if c.DeliveryRatio() != 0 || c.NetworkLoad() != 0 || c.MeanLatency() != 0 || c.MeanHops() != 0 {
		t.Error("empty collector must report zeros")
	}
}

// TestNetworkLoadNoDeliveries pins the zero-delivery sentinel: a run that
// sent control traffic but delivered nothing has no per-packet ratio, and
// the old raw-ControlTx fallback silently mixed a count into Table-I
// averages.
func TestNetworkLoadNoDeliveries(t *testing.T) {
	c := NewCollector()
	c.Control(10)
	c.Control(10)
	if got := c.NetworkLoad(); !math.IsNaN(got) {
		t.Errorf("NetworkLoad with zero deliveries = %v, want NaN sentinel", got)
	}
	// The sentinel is excluded (and counted) by Series, not averaged.
	var s Series
	s.Add(1.5)
	s.Add(c.NetworkLoad())
	s.Add(2.5)
	if s.Mean() != 2 || s.NaNs != 1 || len(s.Values) != 2 {
		t.Errorf("Series after NaN: mean=%v NaNs=%d values=%v", s.Mean(), s.NaNs, s.Values)
	}
}

func TestDropReasons(t *testing.T) {
	c := NewCollector()
	c.Drop("no-route")
	c.Drop("no-route")
	c.Drop("ttl")
	if c.DataDrops["no-route"] != 2 || c.DataDrops["ttl"] != 1 {
		t.Errorf("DataDrops = %v", c.DataDrops)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Sample stddev of this set is sqrt(32/7).
	want := math.Sqrt(32.0 / 7.0)
	if got := StdDev(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("degenerate inputs must return 0")
	}
}

func TestCI95(t *testing.T) {
	// n=10 -> t(9) = 2.262.
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = float64(i)
	}
	want := 2.262 * StdDev(xs) / math.Sqrt(10)
	if got := CI95(xs); math.Abs(got-want) > 1e-9 {
		t.Errorf("CI95 = %v, want %v", got, want)
	}
	if CI95([]float64{5}) != 0 {
		t.Error("CI95 of singleton must be 0")
	}
	// Large n falls back to 1.96.
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i % 10)
	}
	want = 1.96 * StdDev(big) / 10
	if got := CI95(big); math.Abs(got-want) > 1e-9 {
		t.Errorf("CI95 large-n = %v, want %v", got, want)
	}
}

// TestCI95TTableBoundary pins the Student-t table handoff: n=31 (df=30)
// is the last entry read from the table, n=32 (df=31) the first normal
// approximation. An off-by-one here would read past the table or apply
// 1.96 a row early.
func TestCI95TTableBoundary(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i % 7)
		}
		return xs
	}
	xs31 := mk(31)
	want31 := 2.042 * StdDev(xs31) / math.Sqrt(31) // last t-table row (df=30)
	if got := CI95(xs31); math.Abs(got-want31) > 1e-12 {
		t.Errorf("CI95(n=31) = %v, want t=2.042 giving %v", got, want31)
	}
	xs32 := mk(32)
	want32 := 1.96 * StdDev(xs32) / math.Sqrt(32) // df=31: normal approximation
	if got := CI95(xs32); math.Abs(got-want32) > 1e-12 {
		t.Errorf("CI95(n=32) = %v, want t=1.96 giving %v", got, want32)
	}
}
