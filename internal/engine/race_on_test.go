//go:build race

package engine

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are unreliable under it.
const raceEnabled = true
