package tensor

import "fmt"

// Gemm computes C = alpha * op(A)·op(B) + beta * C for row-major packed
// matrices, mirroring the cblas_sgemm calls Caffe makes: op(A) is M×K,
// op(B) is K×N, C is M×N. transA/transB select op = transpose.
//
// The implementation is the cache-blocked, packed-panel kernel in pack.go,
// dispatched over the runtime ISA ladder (isa.go: pure-Go, SSE2 4×8, AVX2
// 8×8). Its determinism contract: every C element accumulates its k terms
// in strictly ascending order, exactly as the retained naive kernel
// (gemmNaive) does, so results are bit-identical to the historical
// implementation for all transpose combinations, all alpha/beta values,
// and every ISA level. Steady-state calls perform zero heap allocations:
// packing buffers come from a sync.Pool-backed arena.
func Gemm(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	GemmFused(transA, transB, m, n, k, alpha, a, b, beta, c, nil)
}

// GemmEpilogue is an elementwise transform fused into a GEMM: it is invoked
// exactly once for each completed row segment of C, immediately after the
// last k term of that block lands — while the segment is still cache hot —
// instead of as a separate full pass over the output. row is the C row
// index, col the absolute column of seg[0], and seg aliases
// C[row, col:col+len(seg)] for in-place update.
//
// Contract: the transform must be elementwise — seg[j]'s new value may
// depend only on seg[j], row, and col+j. Under that restriction the fused
// result is bitwise identical to running the same transform as a separate
// pass after the GEMM, by construction (each element is transformed exactly
// once, from exactly the same input value). Epilogues may write derived
// values to other storage (e.g. a fused ReLU writing the activation top)
// but must not read other C elements, and must not allocate — they run
// inside the zero-allocation kernel, possibly on pool workers.
type GemmEpilogue func(row, col int, seg []float32)

// GemmFused is Gemm with an optional fused epilogue. A nil epi is exactly
// Gemm. The epilogue runs even when the multiply itself is screened out
// (k == 0 or alpha == 0): the transform is a property of the output pass,
// not of the accumulation, so C still gets its beta pass followed by one
// epilogue application per element — identical to the unfused sequence.
func GemmFused(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32, epi GemmEpilogue) {
	GemmParallelPacked(nil, nil, transA, transB, m, n, k, alpha, a, b, beta, c, epi)
}

// gemmRows is the whole product for rows [i0,i1) of C — everything, or one
// band of GemmParallel. A product with no terms (k == 0 or alpha == 0) is
// the beta pass plus the epilogue. Otherwise beta == 0 is not a pass over C
// at all: the blocked kernel starts its first k panel from +0 in registers
// (stale NaN/Inf in C is still never read), and any other beta scales first.
// A non-nil pa is op(A) packed once (gemmBlocked).
func gemmRows(lv ISA, pa *PackedA, transA, transB bool, i0, i1, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32, epi GemmEpilogue) {
	if k == 0 || alpha == 0 {
		gemmScaleBeta(beta, c[i0*n:i1*n])
		applyEpilogueRows(epi, i0, i1, n, c)
		return
	}
	if beta != 0 {
		gemmScaleBeta(beta, c[i0*n:i1*n])
	}
	gemmBlocked(lv, pa, transA, transB, i0, i1, m, n, k, alpha, a, b, c, beta == 0, epi)
}

// applyEpilogueRows runs epi over whole rows [i0,i1) of the m×n C — the
// fallback for GEMMs whose accumulation was screened out entirely.
func applyEpilogueRows(epi GemmEpilogue, i0, i1, n int, c []float32) {
	if epi == nil || n == 0 {
		return
	}
	for i := i0; i < i1; i++ {
		epi(i, 0, c[i*n:i*n+n])
	}
}

// checkGemmDims validates operand sizes against the logical dims; the panic
// messages are part of the package's contract (tests pin them).
func checkGemmDims(transA, transB bool, m, n, k int, a, b, c []float32) {
	if m < 0 || n < 0 || k < 0 {
		panic(fmt.Sprintf("tensor: Gemm negative dims m=%d n=%d k=%d", m, n, k))
	}
	if len(c) < m*n {
		panic(fmt.Sprintf("tensor: Gemm C too small: %d < %d", len(c), m*n))
	}
	if len(a) < m*k {
		panic(fmt.Sprintf("tensor: Gemm A too small: %d < %d", len(a), m*k))
	}
	if len(b) < k*n {
		panic(fmt.Sprintf("tensor: Gemm B too small: %d < %d", len(b), k*n))
	}
}

// gemmScaleBeta applies the beta pass over C exactly as the naive kernel
// did: beta==1 is a no-op, beta==0 zero-fills (so NaN/Inf in C do not leak
// through), anything else scales in place.
func gemmScaleBeta(beta float32, c []float32) {
	switch beta {
	case 1:
	case 0:
		for i := range c {
			c[i] = 0
		}
	default:
		for i := range c {
			c[i] *= beta
		}
	}
}

// gemmNaive is the pre-blocking reference kernel, retained verbatim: an ikj
// loop with a contiguous AXPY inner loop, repacking transposed operands into
// freshly allocated buffers. It defines the bit pattern the blocked kernel
// must reproduce and is what the property tests compare against.
func gemmNaive(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	checkGemmDims(transA, transB, m, n, k, a, b, c)
	if m == 0 || n == 0 {
		return
	}
	gemmScaleBeta(beta, c[:m*n])
	if k == 0 || alpha == 0 {
		return
	}

	// Repack transposed operands so inner loops are contiguous.
	// After packing: A is M×K row-major, B is K×N row-major.
	if transA {
		a = transpose(a, k, m) // stored K×M → M×K
	}
	if transB {
		b = transpose(b, n, k) // stored N×K → K×N
	}

	for i := 0; i < m; i++ {
		ci := c[i*n : i*n+n]
		ai := a[i*k : i*k+k]
		for l := 0; l < k; l++ {
			av := alpha * ai[l]
			if av == 0 {
				continue
			}
			bl := b[l*n : l*n+n]
			axpy(av, bl, ci)
		}
	}
}

// axpy computes y += a*x over equal-length slices. Split out so the bounds
// check hoists and the loop vectorizes.
func axpy(a float32, x, y []float32) {
	_ = y[len(x)-1]
	for i, v := range x {
		y[i] += a * v
	}
}

// transpose returns the transpose of an r×c row-major matrix as a c×r
// row-major matrix.
func transpose(src []float32, r, c int) []float32 {
	dst := make([]float32, r*c)
	for i := 0; i < r; i++ {
		row := src[i*c : i*c+c]
		for j, v := range row {
			dst[j*r+i] = v
		}
	}
	return dst
}

// Gemv computes y = alpha * op(A)·x + beta * y, A row-major M×N.
func Gemv(trans bool, m, n int, alpha float32, a, x []float32, beta float32, y []float32) {
	ylen, xlen := m, n
	if trans {
		ylen, xlen = n, m
	}
	if len(a) < m*n {
		panic(fmt.Sprintf("tensor: Gemv A too small: %d < %d", len(a), m*n))
	}
	if len(x) < xlen || len(y) < ylen {
		panic("tensor: Gemv operand too small")
	}
	switch beta {
	case 1:
	case 0:
		for i := 0; i < ylen; i++ {
			y[i] = 0
		}
	default:
		for i := 0; i < ylen; i++ {
			y[i] *= beta
		}
	}
	if alpha == 0 {
		return
	}
	if !trans {
		for i := 0; i < m; i++ {
			row := a[i*n : i*n+n]
			s := float32(0)
			for j, v := range row {
				s += v * x[j]
			}
			y[i] += alpha * s
		}
	} else {
		for i := 0; i < m; i++ {
			row := a[i*n : i*n+n]
			ax := alpha * x[i]
			if ax == 0 {
				continue
			}
			axpy(ax, row, y[:n])
		}
	}
}

// Axpy computes y += a*x.
func Axpy(a float32, x, y []float32) {
	if len(y) < len(x) {
		panic("tensor: Axpy y shorter than x")
	}
	if a == 0 || len(x) == 0 {
		return
	}
	axpy(a, x, y[:len(x)])
}

// Axpby computes y = a*x + b*y over the first len(x) elements of y. Like
// Axpy, it short-circuits the trivial coefficients: b==1 reduces to Axpy
// (including its a==0 no-op) and a==0 reduces to Scal. For finite inputs the
// fast paths are bit-identical to the general loop; like BLAS, the a==0 path
// normalizes a signed zero that the term 0*x[i] would otherwise contribute.
func Axpby(a float32, x []float32, b float32, y []float32) {
	if len(y) < len(x) {
		panic("tensor: Axpby y shorter than x")
	}
	if len(x) == 0 {
		return
	}
	if b == 1 {
		Axpy(a, x, y)
		return
	}
	if a == 0 {
		Scal(b, y[:len(x)])
		return
	}
	for i, v := range x {
		y[i] = a*v + b*y[i]
	}
}

// Scal scales x by a. a==1 is a no-op and a==0 zero-fills (bit-identical to
// the multiply loop for all finite inputs except that, like BLAS, it writes
// +0 where x held a negative value or a NaN).
func Scal(a float32, x []float32) {
	switch a {
	case 1:
	case 0:
		for i := range x {
			x[i] = 0
		}
	default:
		for i := range x {
			x[i] *= a
		}
	}
}

// Dot returns xᵀy in float64.
func Dot(x, y []float32) float64 {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	s := 0.0
	for i := range x {
		s += float64(x[i]) * float64(y[i])
	}
	return s
}
