package kernels

import (
	"math"
	"testing"

	"repro/internal/simgpu"
	"repro/internal/tensor"
)

func TestElementwiseGridDerivation(t *testing.T) {
	k := Elementwise("relu_fwd", "layer/fwd", "layer", 1000, 8, 1)
	if k.Config.Grid.X != 2 || k.Config.Block.X != NumThreads {
		t.Fatalf("grid %v block %v, want 2 blocks of %d", k.Config.Grid, k.Config.Block, NumThreads)
	}
	// Exactly divisible and sub-block sizes.
	if Elementwise("k", "", "", 512, 1, 1).Config.Grid.X != 1 {
		t.Fatal("512 elems should be 1 block")
	}
	if Elementwise("k", "", "", 513, 1, 1).Config.Grid.X != 2 {
		t.Fatal("513 elems should be 2 blocks")
	}
	if Elementwise("k", "", "", 0, 1, 1).Config.Grid.X != 1 {
		t.Fatal("zero elems should clamp to 1 block")
	}
	// Cost scales with n and folds the bandwidth efficiency in.
	k = Elementwise("k", "", "", 100, 8, 2)
	if k.Cost.FLOPs != 200 {
		t.Fatalf("flops = %v", k.Cost.FLOPs)
	}
	if k.Cost.Bytes <= 800 { // 800 raw / 0.75 eff
		t.Fatalf("bytes = %v, want > raw 800", k.Cost.Bytes)
	}
}

func TestIm2colMatchesPaperWalkthrough(t *testing.T) {
	// The paper's Fig. 6 example: CaffeNet conv1 per-image im2col on K40C
	// launches an [18,1,1] grid with 33 registers per thread.
	g := tensor.ConvGeom{Channels: 3, Height: 227, Width: 227, KernelH: 11, KernelW: 11, StrideH: 4, StrideW: 4}
	k := Im2col("conv1/fwd", "conv1/n0", g)
	if k.Name != "im2col_gpu" {
		t.Fatalf("name = %q", k.Name)
	}
	if k.Config.Grid.X != 18 {
		t.Fatalf("grid = %v, want [18,1,1] (paper Fig. 6)", k.Config.Grid)
	}
	if k.Config.RegsPerThread != 33 {
		t.Fatalf("regs = %d, want 33 (paper Fig. 6)", k.Config.RegsPerThread)
	}
	if k.Config.Block.X != NumThreads {
		t.Fatalf("block = %v", k.Config.Block)
	}
	if k.Tag != "conv1/n0" || k.KeyTag != "conv1/fwd|conv1/n0" {
		t.Fatalf("tag = %q, key tag %q", k.Tag, k.KeyTag)
	}
}

func TestSgemmGridAndCost(t *testing.T) {
	k := Sgemm("conv1/fwd", "conv1/n0", 96, 3025, 363, 0)
	// 64×64 tiles: gx = ceil(3025/64) = 48, gy = ceil(96/64) = 2.
	if k.Config.Grid.X != 48 || k.Config.Grid.Y != 2 {
		t.Fatalf("grid = %v, want [48,2,1]", k.Config.Grid)
	}
	if k.Config.Block.Count() != 256 || k.Config.SharedMemBytes != gemmSmemBytes {
		t.Fatalf("block/smem = %v/%d", k.Config.Block, k.Config.SharedMemBytes)
	}
	rawFlops := 2.0 * 96 * 3025 * 363
	if math.Abs(k.Cost.FLOPs-rawFlops/gemmEff) > 1 {
		t.Fatalf("flops = %v, want %v (raw/eff)", k.Cost.FLOPs, rawFlops/gemmEff)
	}
	// Degenerate dims clamp to one tile.
	k0 := Sgemm("", "t", 0, 0, 0, 0)
	if k0.Config.Grid.X != 1 || k0.Config.Grid.Y != 1 {
		t.Fatalf("degenerate grid = %v", k0.Config.Grid)
	}
}

// TestSgemmFusedNameAndCost: a fused epilogue renames the GEMM and adds
// its per-element FLOPs, and nothing else.
func TestSgemmFusedNameAndCost(t *testing.T) {
	plain, fused := Sgemm("ip/fwd", "ip", 8, 100, 50, 0), Sgemm("ip/fwd", "ip", 8, 100, 50, 2)
	if plain.Name != "sgemm_64x64" || fused.Name != "sgemm_64x64_fused" {
		t.Fatalf("names %q, %q", plain.Name, fused.Name)
	}
	if want := plain.Cost.FLOPs + 2*8*100/gemmEff; math.Abs(fused.Cost.FLOPs-want) > 1e-6 {
		t.Fatalf("fused flops = %v, want %v", fused.Cost.FLOPs, want)
	}
	if fused.Config != plain.Config || fused.Cost.Bytes != plain.Cost.Bytes {
		t.Fatal("fusion changed the launch config or the traffic")
	}
}

func TestBiasGemm(t *testing.T) {
	k := BiasGemm("conv/fwd", "conv/n0", 2, 3)
	if k.Name != "gemmk_1xN" {
		t.Fatalf("name = %q", k.Name)
	}
	if k.Config.Grid != simgpu.D2(1, 1) || k.Cost.FLOPs != 12 {
		t.Fatalf("grid %v flops %v, want one tile and 2·co·p", k.Config.Grid, k.Cost.FLOPs)
	}
}

func TestBiasBackward(t *testing.T) {
	k := BiasBackward("conv/bwd", "conv/n0", 2, 3)
	if k.Name != "gemv_bias_bwd" || k.Cost.FLOPs != 12 || k.KeyTag != "conv/bwd|conv/n0" {
		t.Fatalf("descriptor %+v", k)
	}
}

func TestCol2imKernel(t *testing.T) {
	g := tensor.ConvGeom{Channels: 2, Height: 5, Width: 5, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	k := Col2im("conv/bwd", "t", g)
	if k.Name != "col2im_gpu" {
		t.Fatalf("name = %q", k.Name)
	}
	// Caffe's col2im grid: one thread per image element.
	if k.Config.Grid.X != 1 { // 50 elems / 512
		t.Fatalf("grid = %v", k.Config.Grid)
	}
	if want := float64(g.ColRows()*g.ColCols()) * 2; k.Cost.FLOPs != want {
		t.Fatalf("flops = %v, want %v", k.Cost.FLOPs, want)
	}
}

func TestSGDUpdateAndAxpyKernels(t *testing.T) {
	k := SGDUpdate("solver/update", "w", 1000)
	if k.Name != "sgd_update" || k.KeyTag != "solver/update|w" {
		t.Fatalf("name = %q, key tag %q", k.Name, k.KeyTag)
	}
	a := AxpyKernel("axpy_fold_w", "conv1/bwd", "conv1", 64)
	if a.Config.Grid.X != 1 || a.Tag != "conv1" {
		t.Fatalf("axpy kernel: %v %q", a.Config.Grid, a.Tag)
	}
	// No key leaves the key tag empty; no tag makes it the key alone.
	if k := AxpyKernel("a", "", "t", 1); k.KeyTag != "" {
		t.Fatalf("unkeyed descriptor key tag %q", k.KeyTag)
	}
	if k := AxpyKernel("a", "solver/update", "", 1); k.KeyTag != "solver/update" {
		t.Fatalf("untagged descriptor key tag %q", k.KeyTag)
	}
}

func TestKernelsValidateOnCatalogDevices(t *testing.T) {
	g := tensor.ConvGeom{Channels: 32, Height: 16, Width: 16, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	ks := []simgpu.Kernel{
		Im2col("", "t", g),
		Col2im("", "t", g),
		Sgemm("", "t", 32, 256, 800, 0),
		BiasGemm("", "t", 32, 256),
		Elementwise("relu_fwd", "", "t", 8192, 8, 1),
		SGDUpdate("", "t", 25600),
	}
	for _, spec := range simgpu.DeviceCatalog {
		for _, k := range ks {
			if err := k.Validate(spec); err != nil {
				t.Errorf("%s on %s: %v", k.Name, spec.Name, err)
			}
		}
	}
}
