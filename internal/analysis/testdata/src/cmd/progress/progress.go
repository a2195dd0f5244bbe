// Package main proves the walltime analyzer's package allowlist: the
// default pattern "slr/cmd/..." matches this fixture path ("cmd/progress")
// by suffix, so its wall-clock reads stay silent.
package main

import "time"

// elapsed lives on the wall clock by design: a command's progress line
// reports how long the host took, not simulated time.
func elapsed(start time.Time) time.Duration {
	return time.Since(start)
}

func main() {
	_ = elapsed(time.Now())
}
