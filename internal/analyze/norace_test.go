//go:build !race

package analyze

// raceEnabled is set under the race detector (race_test.go).
const raceEnabled = false
