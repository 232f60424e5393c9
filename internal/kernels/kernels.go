// Package kernels defines the simulated GPU kernel zoo of the Caffe-like
// framework: for every operation the paper's workloads launch (im2col,
// sgemm, the bias "gemmk", pooling, ReLU, LRN, dropout, softmax, SGD
// updates), a constructor derives the launch configuration (grid, block,
// registers, shared memory) and the cost descriptor (effective FLOPs and
// DRAM bytes) from the tensor shapes. A constructor returns a descriptor
// (simgpu.Kernel) by value, built once by its owner and launched by
// reference every pass; the host computation is the owner's, run by
// dnn.Context.Dispatch after the launch.
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

// describe builds a descriptor whose tag is resolved under the layer key it
// launches with (simgpu.Kernel.KeyTag).
func describe(name, key, tag string, cfg simgpu.LaunchConfig, cost simgpu.Cost) simgpu.Kernel {
	k := simgpu.Kernel{Name: name, Config: cfg, Cost: cost, Tag: tag}
	switch {
	case key == "":
	case tag == "":
		k.KeyTag = key
	default:
		k.KeyTag = key + "|" + tag
	}
	return k
}

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

// tiles2D returns the 64×64-tile GEMM grid of an m×n output.
func tiles2D(m, n int) simgpu.Dim3 {
	return simgpu.D2(max((n+63)/64, 1), max((m+63)/64, 1))
}

// Elementwise describes a memory-bound map kernel over n elements with the
// given per-element traffic and arithmetic, launched under layer key key.
func Elementwise(name, key, tag string, n int, bytesPerElem, flopsPerElem float64) simgpu.Kernel {
	return describe(name, key, tag, gridFor(n), simgpu.Cost{
		FLOPs: float64(n) * flopsPerElem,
		Bytes: float64(n) * bytesPerElem / memEff,
	})
}

// Im2col describes Caffe's im2col_gpu kernel for one image: one thread per
// column element, grid sized by channels × output pixels. A 1×1, stride-1,
// unpadded convolution launches it with no host work: its column matrix is
// the image itself, which its GEMMs read in place.
func Im2col(key, tag string, g tensor.ConvGeom) simgpu.Kernel {
	n := g.Channels * g.OutH() * g.OutW() // Caffe's num_kernels
	cfg := gridFor(n)
	cfg.RegsPerThread = regsIm2col
	reads := float64(g.Channels * g.Height * g.Width * 4)
	writes := float64(g.ColRows() * g.ColCols() * 4)
	return describe("im2col_gpu", key, tag, cfg, simgpu.Cost{
		FLOPs: float64(n) * 8, // index arithmetic, negligible
		Bytes: (reads + writes) / memEff,
	})
}

// Col2im describes the adjoint scatter kernel used by convolution backward
// w.r.t. data.
func Col2im(key, tag string, g tensor.ConvGeom) simgpu.Kernel {
	n := g.Channels * g.Height * g.Width // Caffe's col2im grid: one thread per image element
	cfg := gridFor(n)
	cfg.RegsPerThread = regsIm2col
	reads := float64(g.ColRows() * g.ColCols() * 4)
	writes := float64(n * 4)
	return describe("col2im_gpu", key, tag, cfg, simgpu.Cost{
		FLOPs: float64(g.ColRows()*g.ColCols()) * 2,
		Bytes: (reads + writes) / memEff,
	})
}

// Sgemm describes a tiled GEMM kernel computing an m×n output over inner
// dimension k, with the 64×64-tile launch geometry of cuBLAS; its host math
// is tensor.GemmParallelPacked. epiOps > 0 marks a GEMM with a fused
// per-row epilogue (bias add, activation) of that many FLOPs per output
// element — the fusion the dnn conv/ip layers use to collapse their
// separate bias/ReLU output passes into the GEMM (see tensor.GemmEpilogue
// for the elementwise bit-identity contract). The fused kernel charges no
// extra DRAM bytes because the separate pass's output round trip is exactly
// what fusion eliminates.
func Sgemm(key, tag string, m, n, k int, epiOps float64) simgpu.Kernel {
	name := "sgemm_64x64"
	flops := 2 * float64(m) * float64(n) * float64(k)
	if epiOps > 0 {
		name = "sgemm_64x64_fused"
		flops += epiOps * float64(m) * float64(n)
	}
	traffic := 4 * (float64(m)*float64(k) + float64(k)*float64(n) + 2*float64(m)*float64(n))
	return describe(name, key, tag, simgpu.LaunchConfig{
		Grid:           tiles2D(m, n),
		Block:          simgpu.D1(256),
		RegsPerThread:  regsGemm,
		SharedMemBytes: gemmSmemBytes,
	}, simgpu.Cost{
		FLOPs: flops / gemmEff,
		Bytes: traffic / memEff,
	})
}

// BiasGemm describes the K=1 rank-one update Caffe performs to add biases:
// C(Co×P) += bias(Co×1) · ones(1×P). The paper's traces show this as the
// "gemmk" kernel.
func BiasGemm(key, tag string, co, p int) simgpu.Kernel {
	return describe("gemmk_1xN", key, tag, simgpu.LaunchConfig{
		Grid:           tiles2D(co, p),
		Block:          simgpu.D1(256),
		RegsPerThread:  regsGemmK,
		SharedMemBytes: 2048,
	}, simgpu.Cost{
		FLOPs: 2 * float64(co) * float64(p),
		Bytes: 4 * (float64(co) + float64(p) + 2*float64(co)*float64(p)) / memEff,
	})
}

// BiasBackward describes the reduction of output gradients into bias
// gradients: db(Co) += dTop(Co×P) · ones(P).
func BiasBackward(key, tag string, co, p int) simgpu.Kernel {
	return Elementwise("gemv_bias_bwd", key, tag, co*p, 4, 2)
}

// SGDUpdate describes the fused momentum+update kernel the solver launches
// per parameter blob: hist = lr·(diff + wd·data) + momentum·hist; data −=
// hist. The cost model is 3 reads + 2 writes and ~4 FLOPs per element.
func SGDUpdate(key, tag string, n int) simgpu.Kernel {
	return Elementwise("sgd_update", key, tag, n, 20, 4)
}

// AxpyKernel describes a generic saxpy-style device copy/accumulate.
func AxpyKernel(name, key, tag string, n int) simgpu.Kernel {
	return Elementwise(name, key, tag, n, 12, 2)
}
