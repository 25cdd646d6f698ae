//go:build !race

package connector

// raceEnabled is set under the race detector (race_test.go).
const raceEnabled = false
