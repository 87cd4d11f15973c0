//go:build race

package bitpack

// raceEnabled reports whether the race detector is active. Its
// instrumentation may allocate, so allocation-count assertions are
// skipped.
const raceEnabled = true
