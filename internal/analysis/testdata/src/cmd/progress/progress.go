// Package main proves the walltime and timeconv analyzers' package
// allowlists: the default pattern "slr/cmd/..." matches this fixture path
// ("cmd/progress") by suffix, so its wall-clock reads and its float
// conversion stay silent.
package main

import "time"

// elapsed lives on the wall clock by design: a command's progress line
// reports how long the host took, not simulated time.
func elapsed(start time.Time) time.Duration {
	return time.Since(start)
}

// perItem splits a wall-clock duration evenly, converting through float.
func perItem(d time.Duration, n int) time.Duration {
	return time.Duration(float64(d) / float64(n))
}

func main() {
	_ = perItem(elapsed(time.Now()), 4)
}
