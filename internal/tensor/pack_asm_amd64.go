//go:build amd64 && !purego

package tensor

// hasAsmMicro selects the SSE2 micro-kernel inside micro4. SSE2 is part of
// the amd64 baseline, so no runtime feature detection is needed.
const hasAsmMicro = true

// micro4x8 is the SSE2 register-tile kernel: it accumulates a 4-row × 8-col
// block of C held in 8 XMM registers across kc ascending k steps.
//
//   - strip points at the packed 4-row A strip ([l*4+row], alpha folded in)
//   - b points at B[0][j] of the panel (packed, or op(B) where it lies);
//     ldbBytes is the byte stride between consecutive B rows
//   - c0..c3 point at the 8-element C row segments being updated
//
// Per-element arithmetic matches the scalar kernels bit for bit: each lane
// computes c += av*b in ascending-l order, a row whose av is zero is
// skipped (NaN av is not — the unordered compare falls through to the
// multiply), and lanes of MULPS/ADDPS round exactly like scalar MULSS/ADDSS.
// With zero set the block starts from +0 and C is written without being read.
//
//go:noescape
func micro4x8(strip, b, c0, c1, c2, c3 *float32, kc, ldbBytes int, zero bool)
