package tensor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hostpool"
)

// bitsEqual reports whether two float32 slices are bit-for-bit identical and
// returns the first differing index.
func bitsEqual(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// sprinkleZeros zeroes roughly pct percent of the elements, at random
// positions, so the blocked kernel's av == 0 skip is exercised and not just
// the dense fast path.
func sprinkleZeros(rng *rand.Rand, s []float32, pct int) {
	for i := range s {
		if rng.Intn(100) < pct {
			s[i] = 0
		}
	}
}

func checkGemmAgainstNaive(t *testing.T, rng *rand.Rand, ta, tb bool, m, n, k int, alpha, beta float32) {
	t.Helper()
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	sprinkleZeros(rng, a, 12)
	c0 := randSlice(rng, m*n)

	got := append([]float32(nil), c0...)
	want := append([]float32(nil), c0...)
	Gemm(ta, tb, m, n, k, alpha, a, b, beta, got)
	gemmNaive(ta, tb, m, n, k, alpha, a, b, beta, want)
	if i, ok := bitsEqual(got, want); !ok {
		t.Fatalf("ta=%v tb=%v m=%d n=%d k=%d alpha=%v beta=%v: C[%d] = %x want %x",
			ta, tb, m, n, k, alpha, beta, i,
			math.Float32bits(got[i]), math.Float32bits(want[i]))
	}
}

// TestGemmBitIdenticalToNaive sweeps the blocked kernel against the retained
// naive kernel over all four transpose combinations, odd/prime sizes that
// straddle every blocking boundary (MR=4, j-tile 8, MC=64, KC=256, NC=512),
// and the alpha/beta edge cases, asserting bit-for-bit identity.
func TestGemmBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []struct{ m, n, k int }{
		{1, 1, 1},
		{3, 5, 7},
		{4, 8, 16},
		{5, 9, 3},
		{13, 17, 31},
		{31, 7, 257},    // k crosses one KC boundary with a prime tail
		{67, 13, 300},   // m crosses MC
		{7, 519, 11},    // n crosses NC with an odd tail
		{65, 513, 257},  // all three block boundaries at once, odd tails
		{128, 129, 256}, // exact KC block, j tail of 1
		{2, 1031, 5},    // prime n > 2*NC
	}
	alphas := []float32{1, -1, 0.5, 2, 0}
	betas := []float32{0, 1, 2, -0.5}
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			for _, s := range sizes {
				checkGemmAgainstNaive(t, rng, ta, tb, s.m, s.n, s.k, alphas[rng.Intn(len(alphas))], betas[rng.Intn(len(betas))])
			}
			// Edge alphas/betas on one boundary-straddling size.
			for _, al := range alphas {
				for _, be := range betas {
					checkGemmAgainstNaive(t, rng, ta, tb, 65, 513, 257, al, be)
				}
			}
		}
	}
	// The strip-class sweep (cases_test.go) through a fused epilogue; bare
	// Gemm runs it at every rung in TestGemmBitIdenticalAcrossISALevels.
	forEachGemmCase(t, caseMs, caseNs, caseKs, nil, reluEpi,
		func(ta, tb bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
			GemmFused(ta, tb, m, n, k, alpha, a, b, beta, c, reluEpi)
		})
}

// TestGemmBitIdenticalRandomized is the property test: random shapes around
// and beyond the blocking boundaries, random coefficients, random zero
// sprinkling, always bit-identical to the naive kernel.
func TestGemmBitIdenticalRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	coef := []float32{0, 1, -1, 0.5, -0.25, 2, 3}
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(100)
		n := 1 + rng.Intn(600)
		k := 1 + rng.Intn(320)
		checkGemmAgainstNaive(t, rng,
			rng.Intn(2) == 0, rng.Intn(2) == 0,
			m, n, k, coef[rng.Intn(len(coef))], coef[rng.Intn(len(coef))])
	}
}

// FuzzGemmBitIdentical lets the fuzzer hunt for shape/coefficient corners
// where the blocked kernel diverges from the naive one.
func FuzzGemmBitIdentical(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(5), uint8(7), false, false, float32(1), float32(0))
	f.Add(int64(2), uint8(65), uint8(130), uint8(129), true, true, float32(-0.5), float32(2))
	f.Add(int64(3), uint8(4), uint8(16), uint8(255), false, true, float32(0), float32(1))
	f.Fuzz(func(t *testing.T, seed int64, m8, n8, k8 uint8, ta, tb bool, alpha, beta float32) {
		m, n, k := int(m8)+1, int(n8)+1, int(k8)+1
		if math.IsNaN(float64(alpha)) || math.IsNaN(float64(beta)) {
			// NaN coefficients poison every element equally in both kernels
			// but make failure messages useless; keep the fuzz space finite.
			return
		}
		rng := rand.New(rand.NewSource(seed))
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		sprinkleZeros(rng, a, 12)
		c0 := randSlice(rng, m*n)
		got := append([]float32(nil), c0...)
		want := append([]float32(nil), c0...)
		Gemm(ta, tb, m, n, k, alpha, a, b, beta, got)
		gemmNaive(ta, tb, m, n, k, alpha, a, b, beta, want)
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("ta=%v tb=%v m=%d n=%d k=%d alpha=%v beta=%v: C[%d] = %x want %x",
				ta, tb, m, n, k, alpha, beta, i,
				math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	})
}

// serialBands runs tasks sequentially while advertising the given worker
// count — it pins GemmParallel's banding math at an exact width without
// depending on scheduler behavior.
type serialBands struct{ workers int }

func (s serialBands) Workers() int { return s.workers }
func (s serialBands) Run(tasks int, fn func(int)) error {
	for i := 0; i < tasks; i++ {
		fn(i)
	}
	return nil
}

// TestGemmParallelBitIdenticalAtEveryWidth checks the row-band mode against
// the naive kernel at widths 1, 2, 3, and 4 for all transpose combinations,
// including an M that doesn't divide evenly into bands.
func TestGemmParallelBitIdenticalAtEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, width := range []int{1, 2, 3, 4} {
		for _, ta := range []bool{false, true} {
			for _, tb := range []bool{false, true} {
				m, n, k := 70+rng.Intn(80), 1+rng.Intn(520), 1+rng.Intn(300)
				a := randSlice(rng, m*k)
				b := randSlice(rng, k*n)
				sprinkleZeros(rng, a, 12)
				c0 := randSlice(rng, m*n)
				got := append([]float32(nil), c0...)
				want := append([]float32(nil), c0...)
				GemmParallel(serialBands{width}, ta, tb, m, n, k, 1, a, b, 1, got)
				gemmNaive(ta, tb, m, n, k, 1, a, b, 1, want)
				if i, ok := bitsEqual(got, want); !ok {
					t.Fatalf("width=%d ta=%v tb=%v m=%d n=%d k=%d: C[%d] differs", width, ta, tb, m, n, k, i)
				}
			}
		}
		// The strip-class sweep through bands: 65 rows split two ways, 130
		// up to four, every band at most one A panel tall (B read in place).
		forEachGemmCase(t, []int{65, 130}, []int{7, 75}, caseKs, nil, nil,
			func(ta, tb bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
				GemmParallel(serialBands{width}, ta, tb, m, n, k, alpha, a, b, beta, c)
			})
	}
}

// TestGemmParallelOnHostpool runs the row-band mode on a real worker pool
// (goroutines, shared sync.Pool arena), packing per call and reading one
// packed A, and checks bit-identity; under `go test -race` this also proves
// the bands are race-free.
func TestGemmParallelOnHostpool(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, workers := range []int{1, 2, 4} {
		pool := hostpool.New(workers)
		m, n, k := 128, 257, 129
		a := randSlice(rng, m*k)
		b := randSlice(rng, k*n)
		c0 := randSlice(rng, m*n)
		got := append([]float32(nil), c0...)
		want := append([]float32(nil), c0...)
		GemmParallel(pool, false, false, m, n, k, 1, a, b, 0, got)
		gemmNaive(false, false, m, n, k, 1, a, b, 0, want)
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("workers=%d: C[%d] differs", workers, i)
		}
		// One packing read by every band at once, as a conv layer's W is.
		var pa PackedA
		pa.Pack(false, m, k, 1, a)
		clear(got)
		GemmParallelPacked(pool, &pa, false, false, m, n, k, 1, a, b, 0, got, nil)
		pa.Release()
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("workers=%d, packed A: C[%d] differs", workers, i)
		}
	}
}

// TestGemmParallelSmallMFallsBack pins the serial fallback: below the band
// threshold the parallel entry point must not split rows at all.
func TestGemmParallelSmallMFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	m, n, k := gemmMinBandRows-1, 40, 20
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	got := make([]float32, m*n)
	want := make([]float32, m*n)
	GemmParallel(serialBands{8}, false, false, m, n, k, 1, a, b, 0, got)
	Gemm(false, false, m, n, k, 1, a, b, 0, want)
	if i, ok := bitsEqual(got, want); !ok {
		t.Fatalf("fallback differs at %d", i)
	}
}

// TestIm2colFastPathMatchesScalar cross-checks the stride-1 bulk-copy rows
// against a scalar re-derivation, including kernels wider than the padded
// image row (all-padding interior spans).
func TestIm2colFastPathMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	geoms := []ConvGeom{
		{Channels: 2, Height: 9, Width: 9, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1},
		{Channels: 1, Height: 5, Width: 4, KernelH: 3, KernelW: 4, StrideH: 1, StrideW: 1, PadH: 2, PadW: 3},
		{Channels: 3, Height: 7, Width: 6, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2},
		{Channels: 1, Height: 3, Width: 2, KernelH: 1, KernelW: 4, StrideH: 1, StrideW: 1, PadH: 0, PadW: 2},
	}
	for _, g := range geoms {
		img := randSlice(rng, g.Channels*g.Height*g.Width)
		got := make([]float32, g.ColRows()*g.ColCols())
		Im2col(img, g, got)
		want := im2colScalar(img, g)
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("geom %+v: col[%d] = %v want %v", g, i, got[i], want[i])
		}

		// And the adjoint's fast path against its scalar re-derivation.
		col := randSlice(rng, g.ColRows()*g.ColCols())
		gotImg := make([]float32, g.Channels*g.Height*g.Width)
		Col2im(col, g, gotImg)
		wantImg := col2imScalar(col, g)
		if i, ok := bitsEqual(gotImg, wantImg); !ok {
			t.Fatalf("geom %+v: img[%d] = %v want %v", g, i, gotImg[i], wantImg[i])
		}
	}
}

// im2colScalar is the pre-fast-path element-at-a-time expansion.
func im2colScalar(img []float32, g ConvGeom) []float32 {
	oh, ow := g.OutH(), g.OutW()
	col := make([]float32, g.ColRows()*g.ColCols())
	idx := 0
	for c := 0; c < g.Channels; c++ {
		plane := img[c*g.Height*g.Width:]
		for kh := 0; kh < g.KernelH; kh++ {
			for kw := 0; kw < g.KernelW; kw++ {
				for y := 0; y < oh; y++ {
					iy := y*g.StrideH - g.PadH + kh
					for x := 0; x < ow; x++ {
						ix := x*g.StrideW - g.PadW + kw
						if iy >= 0 && iy < g.Height && ix >= 0 && ix < g.Width {
							col[idx] = plane[iy*g.Width+ix]
						}
						idx++
					}
				}
			}
		}
	}
	return col
}

// col2imScalar is the pre-fast-path element-at-a-time scatter.
func col2imScalar(col []float32, g ConvGeom) []float32 {
	oh, ow := g.OutH(), g.OutW()
	img := make([]float32, g.Channels*g.Height*g.Width)
	idx := 0
	for c := 0; c < g.Channels; c++ {
		plane := img[c*g.Height*g.Width:]
		for kh := 0; kh < g.KernelH; kh++ {
			for kw := 0; kw < g.KernelW; kw++ {
				for y := 0; y < oh; y++ {
					iy := y*g.StrideH - g.PadH + kh
					for x := 0; x < ow; x++ {
						ix := x*g.StrideW - g.PadW + kw
						if iy >= 0 && iy < g.Height && ix >= 0 && ix < g.Width {
							plane[iy*g.Width+ix] += col[idx]
						}
						idx++
					}
				}
			}
		}
	}
	return img
}
