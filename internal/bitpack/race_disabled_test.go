//go:build !race

package bitpack

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
