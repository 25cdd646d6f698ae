//go:build !race

package flowfile

// raceEnabled is set under the race detector (race_test.go).
const raceEnabled = false
