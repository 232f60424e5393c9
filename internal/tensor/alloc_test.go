package tensor

import (
	"math/rand"
	"testing"
)

// TestGemmSteadyStateAllocs pins the zero-allocation contract: once the
// sync.Pool arena is warm, Gemm must not touch the heap — for any transpose
// combination, including the ones the naive kernel used to allocate a full
// transpose repack for.
func TestGemmSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by race instrumentation")
	}
	rng := rand.New(rand.NewSource(2))
	m, n, k := 70, 520, 300 // straddles MC/NC/KC so every pack path runs
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	c := make([]float32, m*n)
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			ta, tb := ta, tb
			Gemm(ta, tb, m, n, k, 1, a, b, 0, c) // warm the arena
			allocs := testing.AllocsPerRun(10, func() {
				Gemm(ta, tb, m, n, k, 1, a, b, 0, c)
			})
			if allocs != 0 {
				t.Errorf("Gemm(transA=%v, transB=%v) allocates %.1f objects per call in steady state, want 0", ta, tb, allocs)
			}
		}
	}
	gemmStripAllocs(t, "")
}

// gemmStripAllocs pins the paths the dense 70×520×300 call above never
// takes: a sparse A (compacted rows, their scratch on the stack) and a
// single-panel product with a column tail (B read in place, the tail tile
// through its scratch copies).
func gemmStripAllocs(t *testing.T, at string) {
	rng := rand.New(rand.NewSource(5))
	m, n, k := 32, 75, 300
	sparse, b, c := hostileInputs(rng, m, n, k, 60)
	dense := randSlice(rng, m*k)
	for name, call := range map[string]func(){
		"sparse A, dW":       func() { Gemm(false, true, m, n, k, 1, sparse, b, 1, c) },
		"tail tile, B as is": func() { Gemm(false, false, m, n, k, 1, dense, b, 0, c) },
	} {
		call() // warm the arena
		if allocs := testing.AllocsPerRun(10, call); allocs != 0 {
			t.Errorf("Gemm (%s)%s allocates %.1f objects per call in steady state, want 0", name, at, allocs)
		}
	}
}

// TestGemmISASteadyStateAllocs extends the zero-allocation gate across the
// dispatch ladder: every runnable ISA level must hit the heap zero times in
// steady state (the AVX2 strip kernels included — //go:noescape keeps its
// pointer arguments off the heap).
func TestGemmISASteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by race instrumentation")
	}
	rng := rand.New(rand.NewSource(3))
	m, n, k := 70, 520, 300
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	c := make([]float32, m*n)
	for _, lv := range AvailableISAs() {
		forceISA(t, lv)
		Gemm(false, false, m, n, k, 1, a, b, 0, c) // warm the arena
		allocs := testing.AllocsPerRun(10, func() {
			Gemm(false, false, m, n, k, 1, a, b, 0, c)
		})
		if allocs != 0 {
			t.Errorf("Gemm at %s allocates %.1f objects per call in steady state, want 0", lv, allocs)
		}
		gemmStripAllocs(t, " at "+lv.String())
	}
}

// TestGemmFusedSteadyStateAllocs pins the fused-epilogue paths at zero
// allocations: the epilogue hook must neither allocate nor force C (or
// itself) to escape, serial and band-parallel alike.
func TestGemmFusedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by race instrumentation")
	}
	rng := rand.New(rand.NewSource(4))
	m, n, k := 96, 260, 128
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	c := make([]float32, m*n)
	par := serialBands{4}
	GemmParallelPacked(nil, nil, false, false, m, n, k, 1, a, b, 0, c, reluEpi) // warm
	if allocs := testing.AllocsPerRun(10, func() {
		GemmParallelPacked(nil, nil, false, false, m, n, k, 1, a, b, 0, c, reluEpi)
	}); allocs != 0 {
		t.Errorf("serial fused GemmParallelPacked allocates %.1f objects per call in steady state, want 0", allocs)
	}
	GemmParallelPacked(par, nil, false, false, m, n, k, 1, a, b, 0, c, reluEpi) // warm
	if allocs := testing.AllocsPerRun(10, func() {
		GemmParallelPacked(par, nil, false, false, m, n, k, 1, a, b, 0, c, reluEpi)
	}); allocs != 0 {
		t.Errorf("GemmParallelPacked allocates %.1f objects per call in steady state, want 0", allocs)
	}
}

// TestIm2colSteadyStateAllocs pins Im2col and Col2im at zero allocations.
func TestIm2colSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by race instrumentation")
	}
	g := ConvGeom{Channels: 8, Height: 27, Width: 27, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	img := make([]float32, g.Channels*g.Height*g.Width)
	col := make([]float32, g.ColRows()*g.ColCols())
	if allocs := testing.AllocsPerRun(10, func() { Im2col(img, g, col) }); allocs != 0 {
		t.Errorf("Im2col allocates %.1f objects per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(10, func() { Col2im(col, g, img) }); allocs != 0 {
		t.Errorf("Col2im allocates %.1f objects per call, want 0", allocs)
	}
}

// TestBufArenaSteadyStateAllocs pins the shared scratch arena: a warm
// Get/Put cycle at a stable size must not allocate.
func TestBufArenaSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by race instrumentation")
	}
	b := GetBuf(4096)
	b.Put()
	if allocs := testing.AllocsPerRun(10, func() {
		b := GetBuf(4096)
		b.Put()
	}); allocs != 0 {
		t.Errorf("Buf arena allocates %.1f objects per warm cycle, want 0", allocs)
	}
}

// TestGemmPackedSteadyStateAllocs pins the packed-A path at zero: a warm
// Pack / Release cycle reuses its arena slab and flag slice, and a product
// reading the packing allocates nothing, serial and band-parallel alike.
func TestGemmPackedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by race instrumentation")
	}
	rng := rand.New(rand.NewSource(6))
	m, n, k := 130, 49, 300
	a, b, c := randSlice(rng, m*k), randSlice(rng, k*n), make([]float32, m*n)
	var pa PackedA
	cycle := func() {
		pa.Pack(true, m, k, 1, a)
		GemmParallelPacked(nil, &pa, true, false, m, n, k, 1, a, b, 0, c, reluEpi)
		GemmParallelPacked(serialBands{3}, &pa, true, false, m, n, k, 1, a, b, 0, c, reluEpi)
		pa.Release()
	}
	cycle() // warm
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Errorf("Pack + two packed products + Release allocate %.1f objects in steady state, want 0", allocs)
	}
}
