//go:build !race

package olsr

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
