//go:build race

package obs

// raceEnabled is set under the race detector, whose instrumentation
// changes allocation counts: allocation pins do not apply there.
const raceEnabled = true
