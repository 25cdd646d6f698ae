//go:build race

package enginetest

// raceEnabled is set under the race detector, which changes allocation
// counts.
const raceEnabled = true
