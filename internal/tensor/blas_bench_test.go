package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// Benchmark geometries follow the paper's Table 5 layers: the shapes below
// are the (M, N, K) of the per-image forward SGEMM C(Co×P) = W(Co×K)·col(K×P)
// with K = Ci·Fh·Fw and P = OutH·OutW.
var gemmShapes = []struct {
	name    string
	m, n, k int
}{
	{"CIFAR10_conv1_32x1024x75", 32, 1024, 75},
	{"CIFAR10_conv2_32x256x800", 32, 256, 800},
	{"CIFAR10_conv3_64x64x800", 64, 64, 800},
	{"Siamese_conv2_50x64x500", 50, 64, 500},
	{"CaffeNet_conv1_96x3025x363", 96, 3025, 363},
	{"CaffeNet_conv2_128x729x1200", 128, 729, 1200}, // the AlexNet conv2 shape of the acceptance bar
	{"GoogLeNet_3a1_64x784x192", 64, 784, 192},
}

// benchGemm times fn over random operands; zeroPct of A's elements are
// zeroed at random positions first (the sparsity of a backward operand).
func benchGemm(b *testing.B, m, n, k int, fn func(a, bb, c []float32), zeroPct int) {
	rng := rand.New(rand.NewSource(1))
	a := randSlice(rng, m*k)
	sprinkleZeros(rng, a, zeroPct)
	bb := randSlice(rng, k*n)
	c := make([]float32, m*n)
	b.SetBytes(int64(2) * int64(m) * int64(n) * int64(k)) // FLOPs as "bytes" so ns/op converts to GFLOP/s
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(a, bb, c)
	}
}

func BenchmarkGemm(b *testing.B) {
	for _, s := range gemmShapes {
		s := s
		b.Run(s.name, func(b *testing.B) {
			benchGemm(b, s.m, s.n, s.k, func(a, bb, c []float32) {
				Gemm(false, false, s.m, s.n, s.k, 1, a, bb, 0, c)
			}, 0)
		})
	}
}

// BenchmarkGemmTransB is the conv-backward dW shape: dTop(Co×P)·colᵀ(P×K).
func BenchmarkGemmTransB(b *testing.B) {
	m, n, k := 128, 1200, 729
	benchGemm(b, m, n, k, func(a, bb, c []float32) {
		Gemm(false, true, m, n, k, 1, a, bb, 0, c)
	}, 0)
}

// BenchmarkGemmTransA is the conv-backward dcol shape: Wᵀ(K×Co)·dTop(Co×P).
func BenchmarkGemmTransA(b *testing.B) {
	m, n, k := 1200, 729, 128
	benchGemm(b, m, n, k, func(a, bb, c []float32) {
		Gemm(true, false, m, n, k, 1, a, bb, 0, c)
	}, 0)
}

// Table 5 conv geometries for the im2col/col2im kernels.
var colGeoms = []struct {
	name string
	g    ConvGeom
}{
	{"CIFAR10_conv1", ConvGeom{Channels: 3, Height: 32, Width: 32, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}},
	{"CaffeNet_conv1", ConvGeom{Channels: 3, Height: 227, Width: 227, KernelH: 11, KernelW: 11, StrideH: 4, StrideW: 4}},
	{"CaffeNet_conv2", ConvGeom{Channels: 48, Height: 27, Width: 27, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}},
	{"GoogLeNet_3a1", ConvGeom{Channels: 192, Height: 28, Width: 28, KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}},
}

func BenchmarkIm2col(b *testing.B) {
	for _, tc := range colGeoms {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			img := randSlice(rng, tc.g.Channels*tc.g.Height*tc.g.Width)
			col := make([]float32, tc.g.ColRows()*tc.g.ColCols())
			b.SetBytes(int64(4 * len(col)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Im2col(img, tc.g, col)
			}
		})
	}
}

func BenchmarkCol2im(b *testing.B) {
	for _, tc := range colGeoms {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			col := randSlice(rng, tc.g.ColRows()*tc.g.ColCols())
			img := make([]float32, tc.g.Channels*tc.g.Height*tc.g.Width)
			b.SetBytes(int64(4 * len(col)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Col2im(col, tc.g, img)
			}
		})
	}
}

// The backward GEMMs of a training step, by the shapes a step profile puts
// on top: dW = dTop·colᵀ (transB, β = 1) whose A is a post-ReLU / max-pool
// gradient — mostly zeros in no pattern — and dcol = Wᵀ·dTop (transA, β = 0).
var backwardShapes = []struct {
	name    string
	m, n, k int
}{
	{"CIFAR10_conv1", 32, 75, 1024},
	{"CIFAR10_conv2", 32, 800, 256},
	{"CIFAR10_conv3", 64, 800, 64},
}

func BenchmarkGemmDW(b *testing.B) {
	for _, s := range backwardShapes {
		for _, zeroPct := range []int{0, 50, 80} {
			s, zeroPct := s, zeroPct
			b.Run(fmt.Sprintf("%s_%dx%dx%d_zeros%d", s.name, s.m, s.n, s.k, zeroPct), func(b *testing.B) {
				benchGemm(b, s.m, s.n, s.k, func(a, bb, c []float32) {
					Gemm(false, true, s.m, s.n, s.k, 1, a, bb, 1, c)
				}, zeroPct)
			})
		}
	}
}

func BenchmarkGemmDcol(b *testing.B) {
	for _, s := range backwardShapes {
		s := s
		b.Run(fmt.Sprintf("%s_%dx%dx%d", s.name, s.n, s.k, s.m), func(b *testing.B) {
			benchGemm(b, s.n, s.k, s.m, func(a, bb, c []float32) {
				Gemm(true, false, s.n, s.k, s.m, 1, a, bb, 0, c)
			}, 0)
		})
	}
}

// BenchmarkGemmSkinnyFC is CaffeNet fc6 at the benchmark's two images per
// replica: the forward y = x·Wᵀ and the backward dx = dy·W.
func BenchmarkGemmSkinnyFC(b *testing.B) {
	b.Run("fwd_2x4096x9216_transB", func(b *testing.B) {
		benchGemm(b, 2, 4096, 9216, func(a, bb, c []float32) {
			Gemm(false, true, 2, 4096, 9216, 1, a, bb, 0, c)
		}, 0)
	})
	b.Run("dx_2x9216x4096", func(b *testing.B) {
		benchGemm(b, 2, 9216, 4096, func(a, bb, c []float32) {
			Gemm(false, false, 2, 9216, 4096, 1, a, bb, 1, c)
		}, 0)
	})
}

// BenchmarkGemmPackedA is GoogLeNet's per-image conv GEMMs on 7×7 maps
// (N = 49), where packing W dominates: each image's product packing op(A)
// itself (perCall), against reading one packing made before the loop
// (packedOnce) — what a conv layer pays per image before and after packing
// W once per pass. Forward is W·col (inception 5b's 384×1728 and 4e's
// 160×832); dcol is Wᵀ·dTop.
func BenchmarkGemmPackedA(b *testing.B) {
	for _, s := range []struct {
		name    string
		transA  bool
		m, n, k int
	}{
		{"fwd_384x49x1728", false, 384, 49, 1728},
		{"fwd_160x49x832", false, 160, 49, 832},
		{"dcol_1728x49x384", true, 1728, 49, 384},
	} {
		s := s
		b.Run(s.name+"/perCall", func(b *testing.B) {
			benchGemm(b, s.m, s.n, s.k, func(a, bb, c []float32) {
				Gemm(s.transA, false, s.m, s.n, s.k, 1, a, bb, 0, c)
			}, 0)
		})
		b.Run(s.name+"/packedOnce", func(b *testing.B) {
			var pa PackedA
			defer pa.Release()
			benchGemm(b, s.m, s.n, s.k, func(a, bb, c []float32) {
				if pa.buf == nil {
					pa.Pack(s.transA, s.m, s.k, 1, a)
				}
				GemmParallelPacked(nil, &pa, s.transA, false, s.m, s.n, s.k, 1, a, bb, 0, c, nil)
			}, 0)
		})
	}
}

// BenchmarkGemmRungs is the ladder's verdict: every Table 5 shape plus the
// skinny CaffeNet fc6 product, op(B) as stored and transposed, with A dense
// and half zeros, on the naive loop and on each runnable ISA rung — a rung
// earns its place only by beating the one below it. Sub-benchmarks read
// {shape}/{N,transB}/zeros{0,50}/{naive,purego,sse2,avx2}.
func BenchmarkGemmRungs(b *testing.B) {
	shapes := append(gemmShapes[:len(gemmShapes):len(gemmShapes)], struct {
		name    string
		m, n, k int
	}{"CaffeNet_fc6_2x4096x9216", 2, 4096, 9216})
	for _, s := range shapes {
		for _, tb := range []bool{false, true} {
			for _, zeroPct := range []int{0, 50} {
				s, tb, zeroPct := s, tb, zeroPct
				op := "N"
				if tb {
					op = "transB"
				}
				prefix := fmt.Sprintf("%s/%s/zeros%d/", s.name, op, zeroPct)
				b.Run(prefix+"naive", func(b *testing.B) {
					benchGemm(b, s.m, s.n, s.k, func(a, bb, c []float32) {
						gemmNaive(false, tb, s.m, s.n, s.k, 1, a, bb, 0, c)
					}, zeroPct)
				})
				for _, lv := range AvailableISAs() {
					b.Run(prefix+lv.String(), func(b *testing.B) {
						forceISA(b, lv)
						benchGemm(b, s.m, s.n, s.k, func(a, bb, c []float32) {
							Gemm(false, tb, s.m, s.n, s.k, 1, a, bb, 0, c)
						}, zeroPct)
					})
				}
			}
		}
	}
}
