//go:build !race

package enginetest

// raceEnabled is set under the race detector (race_test.go).
const raceEnabled = false
