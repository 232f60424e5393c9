package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// forceISA sets the dispatch level for one test and restores the previous
// level on cleanup.
func forceISA(t testing.TB, lv ISA) {
	t.Helper()
	prev := ActiveISA()
	if err := SetISA(lv); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = SetISA(prev) })
}

func TestParseISARoundtrip(t *testing.T) {
	for _, lv := range []ISA{ISAPureGo, ISASSE2, ISAAVX2} {
		got, err := ParseISA(lv.String())
		if err != nil || got != lv {
			t.Fatalf("ParseISA(%q) = %v, %v", lv.String(), got, err)
		}
	}
	if _, err := ParseISA("avx512"); err == nil {
		t.Fatal("ParseISA should reject unknown levels")
	}
	if _, err := ParseISA("auto"); err == nil {
		t.Fatal("ParseISA does not handle auto (SetISAName does)")
	}
}

func TestSetISAErrors(t *testing.T) {
	prev := ActiveISA()
	defer func() { _ = SetISA(prev) }()
	if err := SetISA(ISA(99)); err == nil {
		t.Fatal("SetISA should reject out-of-range levels")
	}
	if err := SetISA(ISA(-1)); err == nil {
		t.Fatal("SetISA should reject negative levels")
	}
	if DetectedISA() < ISAAVX2 {
		if err := SetISA(ISAAVX2); err == nil {
			t.Fatal("SetISA should reject levels above the detected ceiling")
		}
	}
	if err := SetISA(ISAPureGo); err != nil {
		t.Fatalf("forcing down must always work: %v", err)
	}
	if ActiveISA() != ISAPureGo {
		t.Fatal("SetISA(ISAPureGo) did not take effect")
	}
	if err := SetISAName("auto"); err != nil {
		t.Fatal(err)
	}
	if ActiveISA() != DetectedISA() {
		t.Fatal("SetISAName(auto) should restore the detected ceiling")
	}
}

func TestAvailableISAsAscending(t *testing.T) {
	avail := AvailableISAs()
	if len(avail) == 0 || avail[0] != ISAPureGo {
		t.Fatalf("AvailableISAs must start at purego: %v", avail)
	}
	if avail[len(avail)-1] != DetectedISA() {
		t.Fatalf("AvailableISAs must end at the detected ceiling: %v", avail)
	}
	for i := 1; i < len(avail); i++ {
		if avail[i] != avail[i-1]+1 {
			t.Fatalf("AvailableISAs not contiguous ascending: %v", avail)
		}
	}
}

// hostileInputs builds A/B/C with the corners the ladder must agree on:
// zeroPct percent of A zeroed (the av==0 skip) and, with any, a whole zero
// row of A (every term of a C row skipped), and NaNs in A (the unordered
// compare must fall through to the multiply, not skip).
func hostileInputs(rng *rand.Rand, m, n, k, zeroPct int) (a, b, c0 []float32) {
	a = randSlice(rng, m*k)
	b = randSlice(rng, k*n)
	sprinkleZeros(rng, a, zeroPct)
	if zeroPct > 0 && m > 1 {
		zr := rng.Intn(m)
		for l := 0; l < k; l++ {
			a[zr*k+l] = 0
		}
	}
	nan := float32(math.NaN())
	for i := 0; i < len(a); i += 97 {
		a[i] = nan
	}
	c0 = randSlice(rng, m*n)
	return
}

// TestGemmBitIdenticalAcrossISALevels forces every runnable level in turn
// over boundary-straddling shapes with hostile inputs and asserts every
// level reproduces the naive kernel bit for bit — the ladder's one contract.
func TestGemmBitIdenticalAcrossISALevels(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	sizes := []struct{ m, n, k int }{
		{1, 1, 1},
		{8, 8, 4},      // exact AVX2 tile
		{9, 17, 5},     // one remainder row, j tail
		{13, 9, 31},    // below one strip of 8, above one of 4
		{65, 513, 257}, // every blocking boundary, odd tails
		{72, 520, 300}, // MR8-divisible m crossing MC
	}
	for _, lv := range AvailableISAs() {
		forceISA(t, lv)
		for _, s := range sizes {
			for _, ta := range []bool{false, true} {
				for _, tb := range []bool{false, true} {
					a, b, c0 := hostileInputs(rng, s.m, s.n, s.k, 12)
					got := append([]float32(nil), c0...)
					want := append([]float32(nil), c0...)
					Gemm(ta, tb, s.m, s.n, s.k, 1, a, b, 1, got)
					gemmNaive(ta, tb, s.m, s.n, s.k, 1, a, b, 1, want)
					if i, ok := bitsEqual(got, want); !ok {
						t.Fatalf("isa=%s ta=%v tb=%v m=%d n=%d k=%d: C[%d] = %x want %x",
							lv, ta, tb, s.m, s.n, s.k, i,
							math.Float32bits(got[i]), math.Float32bits(want[i]))
					}
				}
			}
		}
		// The strip classes one by one — dense, sparse at three densities,
		// whole-zero rows and strips, signed zeros, Inf/NaN under a skip,
		// β = 0 over stale C — at tile-edge shapes (cases_test.go).
		forEachGemmCase(t, caseMs, caseNs, caseKs, nil, nil, Gemm)
	}
}

// FuzzGemmISAParity lets the fuzzer hunt for a shape/coefficient/input
// corner where any rung of the ladder disagrees with the naive kernel on a
// single bit, NaNs and zero rows included. gemmNaive is the reference, so
// every build — a single-rung `-tags purego` one too — has one.
func FuzzGemmISAParity(f *testing.F) {
	f.Add(int64(1), uint8(7), uint8(9), uint8(5), false, false, float32(1), float32(0), uint8(12))
	f.Add(int64(2), uint8(8), uint8(8), uint8(16), true, false, float32(-0.5), float32(1), uint8(12))
	f.Add(int64(3), uint8(65), uint8(130), uint8(255), false, true, float32(2), float32(-1), uint8(12))
	f.Add(int64(4), uint8(16), uint8(64), uint8(64), true, true, float32(0), float32(2), uint8(12))
	f.Add(int64(5), uint8(40), uint8(74), uint8(255), false, true, float32(1), float32(1), uint8(0))  // dense strips only
	f.Add(int64(6), uint8(40), uint8(74), uint8(255), false, true, float32(1), float32(1), uint8(90)) // compacted rows only
	f.Fuzz(func(t *testing.T, seed int64, m8, n8, k8 uint8, ta, tb bool, alpha, beta float32, zeroPct uint8) {
		if math.IsNaN(float64(alpha)) || math.IsNaN(float64(beta)) {
			return // poisons everything equally; useless failure messages
		}
		m, n, k := int(m8)+1, int(n8)+1, int(k8)+1
		rng := rand.New(rand.NewSource(seed))
		a, b, c0 := hostileInputs(rng, m, n, k, int(zeroPct)%101)
		want := append([]float32(nil), c0...)
		gemmNaive(ta, tb, m, n, k, alpha, a, b, beta, want)

		prev := ActiveISA()
		defer func() { _ = SetISA(prev) }()
		for _, lv := range AvailableISAs() {
			if err := SetISA(lv); err != nil {
				t.Fatal(err)
			}
			got := append([]float32(nil), c0...)
			Gemm(ta, tb, m, n, k, alpha, a, b, beta, got)
			if i, ok := bitsEqual(got, want); !ok {
				t.Fatalf("isa=%s diverges from gemmNaive: ta=%v tb=%v m=%d n=%d k=%d alpha=%v beta=%v: C[%d] = %x want %x",
					lv, ta, tb, m, n, k, alpha, beta, i,
					math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	})
}

// reluEpi is a representative fused epilogue (package-level so the alloc
// test sees no closure construction).
var reluEpi GemmEpilogue = func(row, col int, seg []float32) {
	for j, v := range seg {
		if v < 0 {
			seg[j] = 0
		}
	}
}

// TestGemmFusedMatchesSeparatePass pins the epilogue contract at every ISA
// level: GemmParallelPacked(…, epi) must equal Gemm followed by the same
// transform as a separate full pass, bit for bit — including the k==0 and
// alpha==0 screens, where the epilogue must still run.
func TestGemmFusedMatchesSeparatePass(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	type cse struct {
		m, n, k     int
		alpha, beta float32
	}
	cases := []cse{
		{9, 17, 5, 1, 0},
		{65, 513, 257, -0.5, 1},
		{72, 40, 64, 2, 2},
		{12, 30, 0, 1, 1},  // k == 0: epilogue over beta-scaled C
		{12, 30, 16, 0, 0}, // alpha == 0: same screen
	}
	bias := randSlice(rng, 1024)
	biasEpi := func(row, col int, seg []float32) {
		for j := range seg {
			seg[j] += bias[(col+j)%len(bias)]
		}
	}
	for _, lv := range AvailableISAs() {
		forceISA(t, lv)
		for _, cs := range cases {
			for _, epi := range []GemmEpilogue{reluEpi, biasEpi} {
				a := randSlice(rng, cs.m*cs.k)
				b := randSlice(rng, cs.k*cs.n)
				sprinkleZeros(rng, a, 12)
				c0 := randSlice(rng, cs.m*cs.n)
				fused := append([]float32(nil), c0...)
				want := append([]float32(nil), c0...)
				GemmParallelPacked(nil, nil, false, false, cs.m, cs.n, cs.k, cs.alpha, a, b, cs.beta, fused, epi)
				Gemm(false, false, cs.m, cs.n, cs.k, cs.alpha, a, b, cs.beta, want)
				for i := 0; i < cs.m; i++ {
					epi(i, 0, want[i*cs.n:i*cs.n+cs.n])
				}
				if i, ok := bitsEqual(fused, want); !ok {
					t.Fatalf("isa=%s m=%d n=%d k=%d alpha=%v beta=%v: fused C[%d] = %x want %x",
						lv, cs.m, cs.n, cs.k, cs.alpha, cs.beta, i,
						math.Float32bits(fused[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestGemmParallelFusedMatchesSerial pins band-parallel fusion: disjoint row
// bands each apply the epilogue to their own rows, so any width matches the
// serial fused kernel bit for bit.
func TestGemmParallelFusedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m, n, k := 128, 257, 65
	a := randSlice(rng, m*k)
	b := randSlice(rng, k*n)
	sprinkleZeros(rng, a, 12)
	c0 := randSlice(rng, m*n)
	want := append([]float32(nil), c0...)
	GemmParallelPacked(nil, nil, false, false, m, n, k, 1, a, b, 0, want, reluEpi)
	for _, width := range []int{1, 2, 3, 4} {
		got := append([]float32(nil), c0...)
		GemmParallelPacked(serialBands{width}, nil, false, false, m, n, k, 1, a, b, 0, got, reluEpi)
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("width=%d: C[%d] differs", width, i)
		}
	}
}
