// Package kernels defines the simulated GPU kernel zoo of the Caffe-like
// framework: for every operation the paper's workloads launch (im2col,
// sgemm, the bias "gemmk", pooling, ReLU, LRN, dropout, softmax, SGD
// updates), a constructor derives the launch configuration (grid, block,
// registers, shared memory) and the cost descriptor (effective FLOPs and
// DRAM bytes) from the tensor shapes, and binds the real host computation as
// the kernel closure.
//
// These configurations are what GLP4NN's resource tracker observes at
// runtime; their fidelity to Caffe's CUDA kernels is what makes the
// analyzer's decisions (paper Eq. 7: grid sizes, threads per block, shared
// memory per block) meaningful. Conventions follow Caffe: elementwise
// kernels use CUDA_NUM_THREADS=512 one-thread-per-element grids; GEMM uses a
// 64×64-tile, 256-thread block like cuBLAS's sgemm_64x64 variants.
package kernels

import (
	"repro/internal/simgpu"
	"repro/internal/tensor"
)

// NumThreads is Caffe's CUDA_NUM_THREADS.
const NumThreads = 512

// Efficiency factors folded into cost descriptors: the fraction of device
// peak the kernel class achieves in practice. Effective work = raw / eff.
const (
	gemmEff = 0.55 // dense SGEMM fraction-of-peak
	memEff  = 0.75 // streaming-kernel fraction of DRAM bandwidth
)

// Per-kernel-class register counts as a profiler would report them. The
// im2col value (33) is the one the paper quotes in its Fig. 6 walkthrough.
const (
	regsIm2col      = 33
	regsGemm        = 96
	regsGemmK       = 64
	regsElementwise = 24
)

// gemmSmemBytes is the shared memory per GEMM thread block (double-buffered
// 64×16 and 16×64 A/B tiles of float32).
const gemmSmemBytes = 2 * (64*16 + 16*64) * 4

// gridFor returns a 1-D elementwise grid over n items.
func gridFor(n int) simgpu.LaunchConfig {
	blocks := (n + NumThreads - 1) / NumThreads
	if blocks < 1 {
		blocks = 1
	}
	return simgpu.LaunchConfig{
		Grid:          simgpu.D1(blocks),
		Block:         simgpu.D1(NumThreads),
		RegsPerThread: regsElementwise,
	}
}

// Elementwise builds a memory-bound map kernel over n elements with the
// given per-element traffic and arithmetic and a bound host closure.
func Elementwise(name, tag string, n int, bytesPerElem, flopsPerElem float64, fn func()) *simgpu.Kernel {
	cfg := gridFor(n)
	return &simgpu.Kernel{
		Name:   name,
		Tag:    tag,
		Config: cfg,
		Cost: simgpu.Cost{
			FLOPs: float64(n) * flopsPerElem,
			Bytes: float64(n) * bytesPerElem / memEff,
		},
		Fn: fn,
	}
}

// Im2col builds Caffe's im2col_gpu kernel for one image: one thread per
// column element, grid sized by channels × output pixels. A nil col launches
// it with no host closure: a 1×1, stride-1, unpadded convolution's column
// matrix is the image itself, which its GEMMs read in place.
func Im2col(tag string, img []float32, g tensor.ConvGeom, col []float32) *simgpu.Kernel {
	n := g.Channels * g.OutH() * g.OutW() // Caffe's num_kernels
	blocks := (n + NumThreads - 1) / NumThreads
	if blocks < 1 {
		blocks = 1
	}
	reads := float64(g.Channels * g.Height * g.Width * 4)
	writes := float64(g.ColRows() * g.ColCols() * 4)
	kn := &simgpu.Kernel{
		Name: "im2col_gpu",
		Tag:  tag,
		Config: simgpu.LaunchConfig{
			Grid:          simgpu.D1(blocks),
			Block:         simgpu.D1(NumThreads),
			RegsPerThread: regsIm2col,
		},
		Cost: simgpu.Cost{
			FLOPs: float64(n) * 8, // index arithmetic, negligible
			Bytes: (reads + writes) / memEff,
		},
	}
	if col != nil {
		kn.Fn = func() { tensor.Im2col(img, g, col) }
	}
	return kn
}

// Col2im builds the adjoint scatter kernel used by convolution backward
// w.r.t. data.
func Col2im(tag string, col []float32, g tensor.ConvGeom, img []float32) *simgpu.Kernel {
	n := g.Channels * g.Height * g.Width // Caffe's col2im grid: one thread per image element
	blocks := (n + NumThreads - 1) / NumThreads
	if blocks < 1 {
		blocks = 1
	}
	reads := float64(g.ColRows() * g.ColCols() * 4)
	writes := float64(n * 4)
	return &simgpu.Kernel{
		Name: "col2im_gpu",
		Tag:  tag,
		Config: simgpu.LaunchConfig{
			Grid:          simgpu.D1(blocks),
			Block:         simgpu.D1(NumThreads),
			RegsPerThread: regsIm2col,
		},
		Cost: simgpu.Cost{
			FLOPs: float64(g.ColRows()*g.ColCols()) * 2,
			Bytes: (reads + writes) / memEff,
		},
		Fn: func() { tensor.Col2im(col, g, img) },
	}
}

// Sgemm builds a tiled GEMM kernel computing C = alpha·op(A)op(B) + beta·C
// with the 64×64-tile launch geometry of cuBLAS. Its host closure is
// tensor.GemmParallelPacked, bit-identical to the serial kernel whatever the
// optional arguments:
//
//   - a non-nil par shards disjoint row bands of C across the runner's
//     workers;
//   - a non-nil pa is op(A) packed once for the launches that share it (a
//     conv layer's W across its batch), read instead of packing per call;
//   - a non-nil epi is a fused per-row epilogue (bias add, activation)
//     applied while each C tile is still cache hot — the fusion the dnn
//     conv/ip layers use to collapse their separate bias/ReLU output passes
//     into the GEMM (see tensor.GemmEpilogue for the elementwise
//     bit-identity contract). epiOps is its per-element FLOP count for the
//     cost model; the fused kernel charges no extra DRAM bytes because the
//     separate pass's output round trip is exactly what fusion eliminates.
//
// Only epi changes the simulated kernel (its name and FLOPs); par and pa
// change the closure's wall clock and nothing else.
func Sgemm(tag string, par tensor.RowParallel, pa *tensor.PackedA, transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32, epi tensor.GemmEpilogue, epiOps float64) *simgpu.Kernel {
	gx := (n + 63) / 64
	gy := (m + 63) / 64
	if gx < 1 {
		gx = 1
	}
	if gy < 1 {
		gy = 1
	}
	name := "sgemm_64x64"
	flops := 2 * float64(m) * float64(n) * float64(k)
	if epi != nil {
		name = "sgemm_64x64_fused"
		flops += epiOps * float64(m) * float64(n)
	}
	traffic := 4 * (float64(m)*float64(k) + float64(k)*float64(n) + 2*float64(m)*float64(n))
	return &simgpu.Kernel{
		Name: name,
		Tag:  tag,
		Config: simgpu.LaunchConfig{
			Grid:           simgpu.D2(gx, gy),
			Block:          simgpu.D1(256),
			RegsPerThread:  regsGemm,
			SharedMemBytes: gemmSmemBytes,
		},
		Cost: simgpu.Cost{
			FLOPs: flops / gemmEff,
			Bytes: traffic / memEff,
		},
		Fn: func() { tensor.GemmParallelPacked(par, pa, transA, transB, m, n, k, alpha, a, b, beta, c, epi) },
	}
}

// BiasGemm builds the K=1 rank-one update Caffe performs to add biases:
// C(Co×P) += bias(Co×1) · ones(1×P). The paper's traces show this as the
// "gemmk" kernel.
func BiasGemm(tag string, co, p int, bias, ones, out []float32) *simgpu.Kernel {
	gx := (p + 63) / 64
	gy := (co + 63) / 64
	if gx < 1 {
		gx = 1
	}
	if gy < 1 {
		gy = 1
	}
	return &simgpu.Kernel{
		Name: "gemmk_1xN",
		Tag:  tag,
		Config: simgpu.LaunchConfig{
			Grid:           simgpu.D2(gx, gy),
			Block:          simgpu.D1(256),
			RegsPerThread:  regsGemmK,
			SharedMemBytes: 2048,
		},
		Cost: simgpu.Cost{
			FLOPs: 2 * float64(co) * float64(p),
			Bytes: 4 * (float64(co) + float64(p) + 2*float64(co)*float64(p)) / memEff,
		},
		Fn: func() { tensor.Gemm(false, false, co, p, 1, 1, bias, ones, 1, out) },
	}
}

// BiasBackward builds the reduction of output gradients into bias
// gradients: db(Co) += dTop(Co×P) · ones(P).
func BiasBackward(tag string, co, p int, dtop, ones, dbias []float32) *simgpu.Kernel {
	n := co * p
	k := Elementwise("gemv_bias_bwd", tag, n, 4, 2, func() {
		tensor.Gemv(false, co, p, 1, dtop, ones, 1, dbias)
	})
	return k
}

// SGDUpdate builds the fused momentum+update kernel the solver launches per
// parameter blob: hist = lr·(diff + wd·data) + momentum·hist; data −= hist.
// The closure is supplied by the solver; the cost model is 3 reads + 2
// writes and ~4 FLOPs per element.
func SGDUpdate(tag string, n int, fn func()) *simgpu.Kernel {
	return Elementwise("sgd_update", tag, n, 20, 4, fn)
}

// AxpyKernel models a generic saxpy-style device copy/accumulate.
func AxpyKernel(name, tag string, n int, fn func()) *simgpu.Kernel {
	return Elementwise(name, tag, n, 12, 2, fn)
}
