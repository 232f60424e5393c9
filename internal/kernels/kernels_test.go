package kernels

import (
	"math"
	"testing"

	"repro/internal/simgpu"
	"repro/internal/tensor"
)

func TestElementwiseGridDerivation(t *testing.T) {
	k := Elementwise("relu_fwd", "layer", 1000, 8, 1, nil)
	if k.Config.Grid.X != 2 || k.Config.Block.X != NumThreads {
		t.Fatalf("grid %v block %v, want 2 blocks of %d", k.Config.Grid, k.Config.Block, NumThreads)
	}
	// Exactly divisible and sub-block sizes.
	if Elementwise("k", "", 512, 1, 1, nil).Config.Grid.X != 1 {
		t.Fatal("512 elems should be 1 block")
	}
	if Elementwise("k", "", 513, 1, 1, nil).Config.Grid.X != 2 {
		t.Fatal("513 elems should be 2 blocks")
	}
	if Elementwise("k", "", 0, 1, 1, nil).Config.Grid.X != 1 {
		t.Fatal("zero elems should clamp to 1 block")
	}
	// Cost scales with n and folds the bandwidth efficiency in.
	k = Elementwise("k", "", 100, 8, 2, nil)
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
	img := make([]float32, g.Channels*g.Height*g.Width)
	col := make([]float32, g.ColRows()*g.ColCols())
	k := Im2col("conv1/n0", img, g, col)
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
	if k.Tag != "conv1/n0" {
		t.Fatalf("tag = %q", k.Tag)
	}
	// Closure actually performs im2col.
	img[0] = 7
	k.Fn()
	if col[0] != 7 {
		t.Fatal("closure did not run im2col")
	}
}

func TestSgemmGridAndCost(t *testing.T) {
	a := make([]float32, 96*363)
	b := make([]float32, 363*3025)
	c := make([]float32, 96*3025)
	k := Sgemm("conv1/n0", nil, nil, false, false, 96, 3025, 363, 1, a, b, 0, c, nil, 0)
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
	k0 := Sgemm("t", nil, nil, false, false, 0, 0, 0, 1, nil, nil, 0, nil, nil, 0)
	if k0.Config.Grid.X != 1 || k0.Config.Grid.Y != 1 {
		t.Fatalf("degenerate grid = %v", k0.Config.Grid)
	}
}

func TestSgemmClosureComputes(t *testing.T) {
	a := []float32{1, 2, 3, 4} // 2×2
	b := []float32{5, 6, 7, 8}
	c := make([]float32, 4)
	k := Sgemm("t", nil, nil, false, false, 2, 2, 2, 1, a, b, 0, c, nil, 0)
	k.Fn()
	want := []float32{19, 22, 43, 50}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("c = %v, want %v", c, want)
		}
	}
}

func TestBiasGemm(t *testing.T) {
	bias := []float32{1, 2}
	ones := []float32{1, 1, 1}
	out := make([]float32, 6)
	k := BiasGemm("t", 2, 3, bias, ones, out)
	if k.Name != "gemmk_1xN" {
		t.Fatalf("name = %q", k.Name)
	}
	k.Fn()
	want := []float32{1, 1, 1, 2, 2, 2}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v", out)
		}
	}
}

func TestBiasBackward(t *testing.T) {
	dtop := []float32{1, 2, 3, 4, 5, 6} // 2×3
	ones := []float32{1, 1, 1}
	db := make([]float32, 2)
	k := BiasBackward("t", 2, 3, dtop, ones, db)
	k.Fn()
	if db[0] != 6 || db[1] != 15 {
		t.Fatalf("db = %v, want [6 15]", db)
	}
}

func TestCol2imKernel(t *testing.T) {
	g := tensor.ConvGeom{Channels: 2, Height: 5, Width: 5, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	col := make([]float32, g.ColRows()*g.ColCols())
	img := make([]float32, 2*5*5)
	k := Col2im("t", col, g, img)
	if k.Name != "col2im_gpu" {
		t.Fatalf("name = %q", k.Name)
	}
	// Caffe's col2im grid: one thread per image element.
	if k.Config.Grid.X != 1 { // 50 elems / 512
		t.Fatalf("grid = %v", k.Config.Grid)
	}
	for i := range col {
		col[i] = 1
	}
	k.Fn()
	if img[2*5+2] == 0 { // center cell receives all 9 contributions
		t.Fatal("closure did not scatter")
	}
}

func TestSGDUpdateAndAxpyKernels(t *testing.T) {
	ran := false
	k := SGDUpdate("w", 1000, func() { ran = true })
	if k.Name != "sgd_update" {
		t.Fatalf("name = %q", k.Name)
	}
	k.Fn()
	if !ran {
		t.Fatal("closure not bound")
	}
	a := AxpyKernel("axpy_fold_w", "conv1", 64, nil)
	if a.Config.Grid.X != 1 || a.Tag != "conv1" {
		t.Fatalf("axpy kernel: %v %q", a.Config.Grid, a.Tag)
	}
}

// TestKernelsValidateOnCatalogDevices: every builder must produce launches
// the simulated driver accepts on all three paper GPUs.
func TestKernelsValidateOnCatalogDevices(t *testing.T) {
	g := tensor.ConvGeom{Channels: 32, Height: 16, Width: 16, KernelH: 5, KernelW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}
	img := make([]float32, g.Channels*g.Height*g.Width)
	col := make([]float32, g.ColRows()*g.ColCols())
	ks := []*simgpu.Kernel{
		Im2col("t", img, g, col),
		Col2im("t", col, g, img),
		Sgemm("t", nil, nil, false, false, 32, 256, 800, 1, make([]float32, 32*800), make([]float32, 800*256), 0, make([]float32, 32*256), nil, 0),
		BiasGemm("t", 32, 256, make([]float32, 32), make([]float32, 256), make([]float32, 32*256)),
		Elementwise("relu_fwd", "t", 8192, 8, 1, nil),
		SGDUpdate("t", 25600, nil),
	}
	for _, spec := range simgpu.DeviceCatalog {
		for _, k := range ks {
			if err := k.Validate(spec); err != nil {
				t.Errorf("%s on %s: %v", k.Name, spec.Name, err)
			}
		}
	}
}
