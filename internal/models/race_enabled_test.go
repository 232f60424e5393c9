//go:build race

package models

// raceEnabled reports whether the race detector is compiled in; allocation
// accounting is not meaningful under its instrumentation.
const raceEnabled = true
