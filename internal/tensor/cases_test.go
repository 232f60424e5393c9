package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// gemmPattern shapes one operand set, in logical (untransposed, row-major
// M×K / K×N / M×N) form, into a corner the strip kernels must agree with
// the naive kernel on. The operands arrive dense: no exact zero anywhere.
type gemmPattern struct {
	name  string
	beta  float32
	apply func(rng *rand.Rand, m, n, k int, a, b, c []float32)
}

func zeroShare(pct int) func(*rand.Rand, int, int, int, []float32, []float32, []float32) {
	return func(rng *rand.Rand, m, n, k int, a, b, c []float32) { sprinkleZeros(rng, a, pct) }
}

var (
	negZero = float32(math.Copysign(0, -1))
	posInf  = float32(math.Inf(1))
	nan32   = float32(math.NaN())
)

var gemmPatterns = []gemmPattern{
	// Every strip dense: the branch-free tile and nothing else.
	{"dense", 1, func(*rand.Rand, int, int, int, []float32, []float32, []float32) {}},
	{"zeros50", 1, zeroShare(50)},
	{"zeros80", 1, zeroShare(80)},
	{"zeros95", 1, zeroShare(95)},
	// A whole-zero strip (rows 8–15), whole-zero rows inside strips that
	// are otherwise dense, and a whole-zero remainder row.
	{"zeroRows", 1, func(rng *rand.Rand, m, n, k int, a, b, c []float32) {
		for i := 0; i < m; i++ {
			if i == 1 || i == m-1 || (i >= 8 && i < 16) {
				clear(a[i*k : i*k+k])
			}
		}
	}},
	// −0 in A is skipped like +0, and a −0 in C under a skipped term (or a
	// wholly skipped row) keeps its sign: adding +0·b would turn it to +0.
	{"negZero", 1, func(rng *rand.Rand, m, n, k int, a, b, c []float32) {
		for i := range a {
			if rng.Intn(3) == 0 || i/k%3 == 0 {
				a[i] = negZero
			}
		}
		for i := range c {
			if rng.Intn(2) == 0 {
				c[i] = negZero
			}
		}
	}},
	// Inf and NaN in B opposite a zero column of A never reach C; a NaN in
	// A is not a zero and must be multiplied.
	{"infNaNInB", 1, func(rng *rand.Rand, m, n, k int, a, b, c []float32) {
		for l := 0; l < k; l += 3 {
			for i := 0; i < m; i++ {
				a[i*k+l] = 0
			}
			for j := 0; j < n; j++ {
				b[l*n+j] = []float32{posInf, nan32, -posInf}[(l/3+j)%3]
			}
		}
		if k > 1 {
			a[rng.Intn(m)*k+1] = nan32
		}
	}},
	// β = 0 never reads C: stale NaN/Inf must not survive, sparse or dense.
	{"staleC", 0, func(rng *rand.Rand, m, n, k int, a, b, c []float32) {
		sprinkleZeros(rng, a[:m/2*k], 50)
		for i := range c {
			c[i] = []float32{nan32, posInf}[i%2]
		}
	}},
}

// gemmScale is one (α, β) a case sweep multiplies with.
type gemmScale struct{ alpha, beta float32 }

// forEachGemmCase drives run over every pattern × shape × transpose combo
// and checks its C against gemmNaive's bits (after post, when the path under
// test fuses an epilogue), at α = 1 and the pattern's β, or at each of
// scales when it is non-nil. Every operand is cut from the end of guarded
// storage, so a kernel that touches one float past a slice faults — the
// last row of a B read in place is the case that would.
func forEachGemmCase(t *testing.T, ms, ns, ks []int, scales []gemmScale, post GemmEpilogue,
	run func(ta, tb bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32)) {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	maxOf := func(s []int) int {
		v := 0
		for _, x := range s {
			v = max(v, x)
		}
		return v
	}
	mm, nn, kk := maxOf(ms), maxOf(ns), maxOf(ks)
	ga, gb, gc := guardedFloats(t, mm*kk), guardedFloats(t, kk*nn), guardedFloats(t, mm*nn)
	store := func(g, logical []float32, rows, cols int, trans bool) []float32 {
		s := g[len(g)-rows*cols:]
		if !trans {
			copy(s, logical)
			return s
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				s[j*rows+i] = logical[i*cols+j]
			}
		}
		return s
	}
	for _, p := range gemmPatterns {
		for _, m := range ms {
			for _, n := range ns {
				for _, k := range ks {
					a, b, c0 := randSlice(rng, m*k), randSlice(rng, k*n), randSlice(rng, m*n)
					p.apply(rng, m, n, k, a, b, c0)
					sc := scales
					if sc == nil {
						sc = []gemmScale{{1, p.beta}}
					}
					for _, ta := range []bool{false, true} {
						for _, tb := range []bool{false, true} {
							for _, s := range sc {
								sa, sb := store(ga, a, m, k, ta), store(gb, b, k, n, tb)
								got := store(gc, c0, m, n, false)
								want := append([]float32(nil), c0...)
								run(ta, tb, m, n, k, s.alpha, sa, sb, s.beta, got)
								gemmNaive(ta, tb, m, n, k, s.alpha, sa, sb, s.beta, want)
								for i := 0; post != nil && i < m; i++ {
									post(i, 0, want[i*n:i*n+n])
								}
								if i, ok := bitsEqual(got, want); !ok {
									t.Fatalf("isa=%s %s ta=%v tb=%v m=%d n=%d k=%d alpha=%v beta=%v: C[%d] = %x want %x",
										ActiveISA(), p.name, ta, tb, m, n, k, s.alpha, s.beta, i,
										math.Float32bits(got[i]), math.Float32bits(want[i]))
								}
							}
						}
					}
				}
			}
		}
	}
}

// The shapes of the strip-kernel sweep: column counts around one 8-wide
// tile and the 64 + 8 + 3 split of 75, row counts around one 8-row strip and
// one 64-row panel, k below one tile and across two k panels.
var (
	caseMs = []int{1, 2, 7, 9, 65}
	caseNs = []int{1, 2, 3, 4, 5, 6, 7, 9, 75}
	caseKs = []int{1, 7, 300}
)
