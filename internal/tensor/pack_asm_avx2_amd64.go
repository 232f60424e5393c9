//go:build amd64 && !purego

package tensor

// The three AVX2 kernels (pack_asm_avx2_amd64.s). Callers must only
// dispatch here when ActiveISA() == ISAAVX2 — the instruction stream
// requires AVX2 plus OS YMM-state support (detectISA). Every lane computes
// c += av*b in ascending-l order with VMULPS/VADDPS (never FMA — DESIGN
// §7.5), rounding exactly like scalar MULSS/ADDSS. With zero set the
// accumulators start from +0 and C is written without being read. Each
// kernel touches exactly the floats named below and nothing past them.

// dense8x8 accumulates an 8-row × 8-col block of C across kc k steps for a
// strip in which no α·a is zero (the tile has no skip to apply).
//
//   - strip is the packed 8-row A strip ([l*8+row], alpha folded in)
//   - b is B[0][j]: 8 floats are read from each of kc rows ldbBytes apart
//   - c is C[r][j]: 8 floats in each of 8 rows ldcBytes apart
//
//go:noescape
func dense8x8(strip, b, c *float32, kc, ldbBytes, ldcBytes int, zero bool)

// sparseRow64 accumulates one C row × 64 columns from the row's cnt
// non-zero terms: vals[i] = α·a and ls[i] its k index in the panel, in
// ascending order — the zero terms were dropped by compactRow, which is the
// naive kernel's skip. b is B[0][j]: 64 floats are read from row ls[i] for
// each i, and from no other row. cnt == 0 stores C back (or +0) unchanged.
//
//go:noescape
func sparseRow64(vals *float32, ls *int32, cnt int, b *float32, ldbBytes int, c *float32, zero bool)

// sparseRow8 is sparseRow64 over 8 columns.
//
//go:noescape
func sparseRow8(vals *float32, ls *int32, cnt int, b *float32, ldbBytes int, c *float32, zero bool)
