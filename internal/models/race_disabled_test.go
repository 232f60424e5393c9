//go:build !race

package models

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
