//go:build !race

package simgpu

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
