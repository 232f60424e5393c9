//go:build !amd64 || purego

package tensor

// Without assembly micro-kernels the dispatch ladder tops out at ISAPureGo
// (see isa_noasm.go), so none of the stubs below is reachable.

func micro4x8(strip, b, c0, c1, c2, c3 *float32, kc, ldbBytes int, zero bool) {
	panic("tensor: micro4x8 called without assembly support")
}

func dense8x8(strip, b, c *float32, kc, ldbBytes, ldcBytes int, zero bool) {
	panic("tensor: dense8x8 called without assembly support")
}

func sparseRow64(vals *float32, ls *int32, cnt int, b *float32, ldbBytes int, c *float32, zero bool) {
	panic("tensor: sparseRow64 called without assembly support")
}

func sparseRow8(vals *float32, ls *int32, cnt int, b *float32, ldbBytes int, c *float32, zero bool) {
	panic("tensor: sparseRow8 called without assembly support")
}
