//go:build race

package storage

// raceEnabled reports whether the race detector is active. Its
// instrumentation may allocate, so allocation-count assertions are
// skipped.
const raceEnabled = true
