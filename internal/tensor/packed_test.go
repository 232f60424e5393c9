package tensor

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// reverseBands runs GemmParallelPacked's bands sequentially, last band first,
// while advertising the given worker count: a band that leaned on an earlier
// band's work (a shared panel, a packed strip written late) would show.
type reverseBands struct{ workers int }

func (r reverseBands) Workers() int { return r.workers }
func (r reverseBands) Run(tasks int, fn func(int)) error {
	for i := tasks - 1; i >= 0; i-- {
		fn(i)
	}
	return nil
}

// packedProduct packs A once and multiplies through it, as a conv layer's
// per-image GEMMs do.
func packedProduct(p RowParallel, epi GemmEpilogue) func(ta, tb bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	return func(ta, tb bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
		var pa PackedA
		pa.Pack(ta, m, k, alpha, a)
		GemmParallelPacked(p, &pa, ta, tb, m, n, k, alpha, a, b, beta, c, epi)
		pa.Release()
	}
}

// TestGemmPackedBitIdenticalToNaive routes the packed-A path through the
// strip-class sweep at every rung, with and without a fused epilogue: M
// below one strip, off a strip boundary and past one panel, K across two k
// blocks, N across two B panels and off the 8-column tile; a 130-row shape
// again in 2 and 3 bands run in reverse; then every (α, β) of the contract,
// 70 rows in 2 bands.
func TestGemmPackedBitIdenticalToNaive(t *testing.T) {
	ks := []int{5, 300}
	scales := []gemmScale{}
	for _, alpha := range []float32{1, 0.5, 0, -1} {
		for _, beta := range []float32{0, 1, 0.5} {
			scales = append(scales, gemmScale{alpha, beta})
		}
	}
	for _, lv := range AvailableISAs() {
		forceISA(t, lv)
		for _, epi := range []GemmEpilogue{nil, reluEpi} {
			forEachGemmCase(t, []int{3, 13, 130}, []int{7, 75}, ks, nil, epi, packedProduct(nil, epi))
			forEachGemmCase(t, []int{3, 13}, []int{530}, []int{300}, nil, epi, packedProduct(nil, epi))
			for _, width := range []int{2, 3} {
				forEachGemmCase(t, []int{130}, []int{75}, []int{300}, nil, epi, packedProduct(reverseBands{width}, epi))
			}
		}
		forEachGemmCase(t, []int{13, 70}, []int{75}, []int{300}, scales, nil, packedProduct(reverseBands{3}, nil))
	}
}

// TestGemmPackedAcrossISAChange packs under one rung and multiplies after
// SetISA moved the ladder: the product runs the rung the strips were packed
// for, so the bits are still the naive kernel's.
func TestGemmPackedAcrossISAChange(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	m, n, k := 130, 75, 300
	a, b := randSlice(rng, m*k), randSlice(rng, k*n)
	sprinkleZeros(rng, a, 30)
	want := make([]float32, m*n)
	gemmNaive(true, false, m, n, k, 1, a, b, 0, want)
	for _, from := range AvailableISAs() {
		for _, to := range AvailableISAs() {
			forceISA(t, from)
			var pa PackedA
			pa.Pack(true, m, k, 1, a)
			forceISA(t, to)
			for _, width := range []int{1, 3} {
				got := make([]float32, m*n)
				GemmParallelPacked(reverseBands{width}, &pa, true, false, m, n, k, 1, a, b, 0, got, nil)
				if i, ok := bitsEqual(got, want); !ok {
					t.Fatalf("packed at %s, multiplied at %s, width %d: C[%d] = %x want %x",
						from, to, width, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
				}
			}
			pa.Release()
		}
	}
}

// TestGemmPackedRefusesMismatch: a packing is only read by the product it
// was packed for — other dimensions, transpose or α panic, as does a
// released packing.
func TestGemmPackedRefusesMismatch(t *testing.T) {
	a, b, c := make([]float32, 64), make([]float32, 64), make([]float32, 64)
	var pa PackedA
	pa.Pack(false, 8, 8, 1, a)
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"m", func() { GemmParallelPacked(nil, &pa, false, false, 4, 8, 8, 1, a, b, 0, c, nil) }},
		{"transA", func() { GemmParallelPacked(nil, &pa, true, false, 8, 8, 8, 1, a, b, 0, c, nil) }},
		{"alpha", func() { GemmParallelPacked(nil, &pa, false, false, 8, 8, 8, 2, a, b, 0, c, nil) }},
		{"released", func() { pa.Release(); GemmParallelPacked(nil, &pa, false, false, 8, 8, 8, 1, a, b, 0, c, nil) }},
	} {
		name, call := tc.name, tc.call
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "packed A") {
					t.Errorf("%s mismatch: recovered %v, want a packed-A panic", name, r)
				}
			}()
			call()
		}()
	}
}
