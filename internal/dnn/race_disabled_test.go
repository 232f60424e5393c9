//go:build !race

package dnn

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
