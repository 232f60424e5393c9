//go:build !linux

package tensor

import "testing"

// guardedFloats without a guard page: plain storage (see guard_linux_test.go).
func guardedFloats(t testing.TB, n int) []float32 { return make([]float32, n) }
