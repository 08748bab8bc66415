//go:build race

package core

// raceEnabled reports that this build carries race-detector
// instrumentation, which slows single-goroutine statistical sweeps many
// times over without giving them anything to check.
const raceEnabled = true
