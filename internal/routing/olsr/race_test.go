//go:build race

package olsr

// raceEnabled reports a -race build, under which sync.Pool drops a quarter
// of its Puts on purpose, so a pooled path allocates at random.
const raceEnabled = true
