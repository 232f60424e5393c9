//go:build !race

package hostpool

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
