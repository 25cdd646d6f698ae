//go:build !race

package dag

// raceEnabled is set under the race detector (race_test.go).
const raceEnabled = false
