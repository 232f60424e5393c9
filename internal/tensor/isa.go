package tensor

import (
	"fmt"
	"os"
	"sync/atomic"
)

// ISA identifies one level of the runtime-dispatched micro-kernel ladder
// behind Gemm. Levels are ordered: a higher level strictly widens the
// register tile but never changes a single output bit — every level obeys
// the same ascending-k, per-lane-rounding, per-row α·a==0-skip contract, so
// dispatch is a pure speed decision (see DESIGN §7.5). The active level is
// chosen once at init from CPUID (and may be lowered at runtime via SetISA
// or the GLP4NN_ISA environment variable, e.g. to pin benchmarks or to
// reproduce a slower host's exact instruction stream — the bits match
// either way, only the clock differs).
type ISA int32

const (
	// ISAPureGo is the portable micro-kernel: one row at a time in 8-wide
	// Go register tiles. The only level available off amd64 or under the
	// `purego` build tag.
	ISAPureGo ISA = iota
	// ISASSE2 is the SSE2 4×8 XMM register-tile micro-kernel — part of the
	// amd64 baseline, so always available on amd64 asm builds.
	ISASSE2
	// ISAAVX2 is the AVX2 rung: 8-row strips through a dense 8×8 YMM tile
	// or, where a strip holds a zero, compacted rows (pack.go; VMULPS +
	// VADDPS only — deliberately no FMA: fused rounding would break the
	// scalar bit-identity contract; see DESIGN §7.5). Requires CPUID AVX2
	// plus OS XSAVE support for YMM state.
	ISAAVX2
)

// String implements fmt.Stringer with the names GLP4NN_ISA accepts.
func (l ISA) String() string {
	switch l {
	case ISAPureGo:
		return "purego"
	case ISASSE2:
		return "sse2"
	case ISAAVX2:
		return "avx2"
	}
	return fmt.Sprintf("ISA(%d)", int32(l))
}

// mr returns the level's register-blocked row count (the MR of the pack
// layout and micro-kernel tile; 1 at the pure-Go rung, whose kernel takes one
// row). gemmMC must stay divisible by every value returned here.
func (l ISA) mr() int {
	switch l {
	case ISAAVX2:
		return gemmMR8
	case ISASSE2:
		return gemmMR4
	}
	return 1
}

// strips returns the number of whole MR-row strips in n rows: none at the
// pure-Go rung, whose rows are packed and multiplied one at a time and carry
// no zero flags.
func (l ISA) strips(n int) int {
	if l == ISAPureGo {
		return 0
	}
	return n / l.mr()
}

// detectedISALevel is fixed at init by the build-specific detectISA (CPUID
// on amd64 asm builds, ISAPureGo elsewhere).
var detectedISALevel = detectISA()

// activeISALevel is the level Gemm dispatches on, read once per call.
var activeISALevel atomic.Int32

func init() {
	lv := detectedISALevel
	if s := os.Getenv("GLP4NN_ISA"); s != "" && s != "auto" {
		if want, err := ParseISA(s); err == nil && want < lv {
			// The environment can only force the ladder down; asking for a
			// level the host cannot run (or a typo) keeps auto-detection.
			lv = want
		}
	}
	activeISALevel.Store(int32(lv))
}

// ParseISA parses a level name as accepted by GLP4NN_ISA ("purego", "sse2",
// "avx2").
func ParseISA(s string) (ISA, error) {
	switch s {
	case "purego":
		return ISAPureGo, nil
	case "sse2":
		return ISASSE2, nil
	case "avx2":
		return ISAAVX2, nil
	}
	return 0, fmt.Errorf("tensor: unknown ISA level %q (want purego, sse2, avx2 or auto)", s)
}

// DetectedISA returns the highest level this host can run (the dispatch
// ceiling): ISAPureGo off amd64 or under `-tags purego`, otherwise ISASSE2
// or ISAAVX2 from CPUID.
func DetectedISA() ISA { return detectedISALevel }

// ActiveISA returns the level Gemm currently dispatches to.
func ActiveISA() ISA { return ISA(activeISALevel.Load()) }

// AvailableISAs returns every runnable level in ascending order — the arms a
// parity test or benchmark sweep can force via SetISA.
func AvailableISAs() []ISA {
	out := make([]ISA, 0, 3)
	for l := ISAPureGo; l <= detectedISALevel; l++ {
		out = append(out, l)
	}
	return out
}

// SetISA forces the dispatch level. Forcing below the detected ceiling is
// always allowed (the contract guarantees identical bits, so this is a pure
// speed/repro knob); forcing above it is an error. Concurrent Gemm calls
// each read the level once at entry, so a mid-flight change never mixes
// kernels within one call.
func SetISA(lv ISA) error {
	if lv < ISAPureGo || lv > ISAAVX2 {
		return fmt.Errorf("tensor: invalid ISA level %d", int32(lv))
	}
	if lv > detectedISALevel {
		return fmt.Errorf("tensor: ISA level %s not available on this host (detected %s)", lv, detectedISALevel)
	}
	activeISALevel.Store(int32(lv))
	return nil
}

// SetISAName is SetISA for CLI/env-style names; "auto" (or "") restores the
// detected ceiling.
func SetISAName(s string) error {
	if s == "" || s == "auto" {
		activeISALevel.Store(int32(detectedISALevel))
		return nil
	}
	lv, err := ParseISA(s)
	if err != nil {
		return err
	}
	return SetISA(lv)
}
