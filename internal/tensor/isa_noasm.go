//go:build !amd64 || purego

package tensor

// detectISA without assembly micro-kernels: the portable Go row kernel is the
// only level, so the ladder has a single rung.
func detectISA() ISA { return ISAPureGo }
