//go:build !race

package dashboard

// raceEnabled is set under the race detector (race_test.go).
const raceEnabled = false
