//go:build !race

package server

// raceEnabled is set under the race detector (race_test.go).
const raceEnabled = false
