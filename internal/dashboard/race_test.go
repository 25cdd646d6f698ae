//go:build race

package dashboard

// raceEnabled is set under the race detector, whose instrumented
// slices.Grow allocates a vector's growth twice: byte counts that hold a
// decode to its vectors do not apply there.
const raceEnabled = true
