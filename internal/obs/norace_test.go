//go:build !race

package obs

// raceEnabled is set under the race detector (race_test.go).
const raceEnabled = false
