package dnn

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// ConvConfig is one convolution layer's geometry, matching the columns of
// the paper's Table 5: C_o output maps, F_h×F_w filter, stride S, pad P.
type ConvConfig struct {
	NumOutput        int
	KernelH, KernelW int
	StrideH, StrideW int
	PadH, PadW       int
	Bias             bool
	WeightFiller     tensor.Filler
	BiasFiller       tensor.Filler
	Seed             int64
}

// Conv builds a square-kernel config (the common case in Table 5).
func Conv(numOutput, kernel, stride, pad int) ConvConfig {
	return ConvConfig{
		NumOutput: numOutput,
		KernelH:   kernel, KernelW: kernel,
		StrideH: stride, StrideW: stride,
		PadH: pad, PadW: pad,
		Bias: true,
	}
}

// ConvLayer is GEMM-based convolution computed image by image, exactly like
// Caffe's GPU path: for each batch sample the layer launches im2col_gpu,
// sgemm and (with bias) the K=1 gemmk kernel. Each sample's kernels form a
// dependency chain; independent samples go to independent chains — the
// batch-level parallelism GLP4NN exploits (the n-loop of the paper's
// Algorithms 1 and 2).
//
// Weight/bias gradients are accumulated into per-chain partial buffers and
// folded in fixed chain order after the batch, which is how a real
// stream-parallel implementation avoids cross-stream races; the fold order
// is deterministic, so training runs are reproducible for any pool width.
type ConvLayer struct {
	baseLayer
	cfg ConvConfig

	weight *Blob
	bias   *Blob

	geom tensor.ConvGeom
	co   int // output channels
	k    int // geom.ColRows()
	p    int // geom.ColCols()

	// Per-chain scratch is leased from the shared tensor arena for the
	// duration of one pass (acquired before dispatch, released after the
	// batch barrier retires every closure referencing it), so layers and
	// nets share slabs instead of each holding peak-sized buffers. The
	// slices themselves persist so a steady-state pass allocates nothing.
	colBufs  []*tensor.Buf // per-chain im2col scratch
	dcolBufs []*tensor.Buf // per-chain backward scratch
	partW    []*tensor.Buf // per-chain weight-gradient partials
	partB    []*tensor.Buf // per-chain bias-gradient partials
	onesP    []float32     // length p, for bias broadcast
	tags     []string      // per-image kernel tag "name/n<i>", built once in Setup

	// packW is the pass's GEMM A operand — W forward, Wᵀ backward — packed
	// once before the per-image loop when the pass computes, its floats
	// leased and released with the scratch above. is1x1 marks a 1×1,
	// stride-1, unpadded conv, whose column matrix is the image: its GEMMs
	// read the bottom blob and it leases no column buffer (Caffe's is_1x1_).
	packW tensor.PackedA
	is1x1 bool

	// Fusion flags set by Net.EnableFusion (see fusion.go): fuseBias folds
	// the gemmk bias pass into the forward GEMM's epilogue; fusedReLU, when
	// non-nil, is the downstream activation's top blob, co-written with
	// max(0, x) by the same epilogue. Backward is untouched.
	fuseBias  bool
	fusedReLU *Blob
}

// NewConv constructs a convolution layer.
func NewConv(name string, cfg ConvConfig) *ConvLayer {
	if cfg.WeightFiller == nil {
		cfg.WeightFiller = tensor.XavierFiller{}
	}
	if cfg.BiasFiller == nil {
		cfg.BiasFiller = tensor.ConstantFiller{Value: 0}
	}
	return &ConvLayer{baseLayer: baseLayer{name: name, typ: "Convolution"}, cfg: cfg}
}

// Geometry returns the layer's conv geometry (valid after Setup).
func (l *ConvLayer) Geometry() tensor.ConvGeom { return l.geom }

// Setup implements Layer.
func (l *ConvLayer) Setup(ctx *Context, bottom, top []*Blob) error {
	if len(bottom) != 1 || len(top) != 1 {
		return fmt.Errorf("conv %s: want 1 bottom and 1 top, got %d/%d", l.name, len(bottom), len(top))
	}
	b := bottom[0]
	if b.Data.NumDims() != 4 {
		return fmt.Errorf("conv %s: bottom must be 4-D, got %v", l.name, b.Shape())
	}
	l.geom = tensor.ConvGeom{
		Channels: b.Channels(),
		Height:   b.Height(), Width: b.Width(),
		KernelH: l.cfg.KernelH, KernelW: l.cfg.KernelW,
		StrideH: l.cfg.StrideH, StrideW: l.cfg.StrideW,
		PadH: l.cfg.PadH, PadW: l.cfg.PadW,
	}
	if l.geom.OutH() <= 0 || l.geom.OutW() <= 0 {
		return fmt.Errorf("conv %s: empty output %dx%d", l.name, l.geom.OutH(), l.geom.OutW())
	}
	l.co = l.cfg.NumOutput
	g := l.geom
	l.is1x1 = g.KernelH == 1 && g.KernelW == 1 && g.StrideH == 1 && g.StrideW == 1 && g.PadH == 0 && g.PadW == 0
	l.k = l.geom.ColRows()
	l.p = l.geom.ColCols()

	rng := fillerRNG(l.cfg.Seed, l.name)
	l.weight = NewBlob(l.name+".weight", l.co, b.Channels(), l.cfg.KernelH, l.cfg.KernelW)
	l.cfg.WeightFiller.Fill(l.weight.Data, rng)
	l.param = []*Blob{l.weight}
	if l.cfg.Bias {
		l.bias = NewBlob(l.name+".bias", l.co)
		l.bias.LrMult, l.bias.DecayMult = 2, 0
		l.cfg.BiasFiller.Fill(l.bias.Data, rng)
		l.param = append(l.param, l.bias)
	}

	top[0].Reshape(b.Num(), l.co, l.geom.OutH(), l.geom.OutW())

	l.onesP = make([]float32, l.p)
	for i := range l.onesP {
		l.onesP[i] = 1
	}
	l.tags = make([]string, b.Num())
	for i := range l.tags {
		l.tags[i] = fmt.Sprintf("%s/n%d", l.name, i)
	}
	return nil
}

// leaseScratch leases the per-chain buffers for the launcher width from the
// shared arena; releaseScratch returns them. Callers must only release
// after a barrier has retired every kernel closure that references them.
func (l *ConvLayer) leaseScratch(width int, backward bool) {
	if !l.is1x1 {
		l.colBufs = tensor.LeaseInto(l.colBufs, width, l.k*l.p)
	}
	if !backward {
		return
	}
	l.dcolBufs = tensor.LeaseInto(l.dcolBufs, width, l.k*l.p)
	l.partW = tensor.LeaseInto(l.partW, width, l.weight.Count())
	if l.bias != nil {
		l.partB = tensor.LeaseInto(l.partB, width, l.co)
	}
}

func (l *ConvLayer) releaseScratch() {
	tensor.PutBufs(l.colBufs)
	tensor.PutBufs(l.dcolBufs)
	tensor.PutBufs(l.partW)
	tensor.PutBufs(l.partB)
	l.packW.Release()
}

// packedW packs op(W) (Wᵀ when transA) for the pass, or returns nil on a
// timing-only pass, whose closures never run.
func (l *ConvLayer) packedW(ctx *Context, transA bool) *tensor.PackedA {
	if !ctx.Compute {
		return nil
	}
	m, k := l.co, l.k
	if transA {
		m, k = k, m
	}
	l.packW.Pack(transA, m, k, 1, l.weight.Data.Data())
	return &l.packW
}

// column returns chain j's im2col destination and the column matrix the
// GEMMs read: for the 1×1 shortcut no destination, and the image itself.
func (l *ConvLayer) column(j int, img []float32) (dst, col []float32) {
	if l.is1x1 {
		return nil, img
	}
	return l.colBufs[j].Data, l.colBufs[j].Data
}

// Forward implements Layer: per-image im2col → sgemm → gemmk chains.
// Scratch is leased from the shared arena for the pass and released only
// after the barrier has retired every closure that references it.
func (l *ConvLayer) Forward(ctx *Context, bottom, top []*Blob) error {
	width := ctx.Width()
	l.leaseScratch(width, false)
	err := l.forwardDispatch(ctx, bottom, top, width)
	berr := ctx.Barrier()
	l.releaseScratch()
	if err != nil {
		return err
	}
	return berr
}

func (l *ConvLayer) forwardDispatch(ctx *Context, bottom, top []*Blob, width int) error {
	n := bottom[0].Num()
	w := l.weight.Data.Data()
	pw := l.packedW(ctx, false)
	par := ctx.RowPar()
	var bias []float32
	if l.fuseBias && l.bias != nil {
		bias = l.bias.Data.Data()
	}
	fused := bias != nil || l.fusedReLU != nil
	for i := 0; i < n; i++ {
		chain := i
		img := bottom[0].SampleData(i)
		dst, buf := l.column(i%width, img)
		out := top[0].SampleData(i)
		tag := l.tags[i]
		if err := ctx.Dispatch(kernels.Im2col(tag, img, l.geom, dst), chain); err != nil {
			return err
		}
		// Bias (and ReLU co-write) ride a fused GEMM's epilogue; the
		// separate gemmk/relu_fwd kernels never launch. Bitwise identical
		// outputs — see fusion.go.
		var epi tensor.GemmEpilogue
		var ops float64
		if fused {
			epi, ops = l.fusionEpilogue(bias, i)
		}
		if err := ctx.Dispatch(kernels.Sgemm(tag, par, pw, false, false, l.co, l.p, l.k, 1, w, buf, 0, out, epi, ops), chain); err != nil {
			return err
		}
		if !fused && l.bias != nil {
			if err := ctx.Dispatch(kernels.BiasGemm(tag, l.co, l.p, l.bias.Data.Data(), l.onesP, out), chain); err != nil {
				return err
			}
		}
	}
	return nil
}

// Backward implements Layer. Per image: recompute im2col, accumulate dW and
// db into per-chain partials, compute dcol = Wᵀ·dTop and scatter with
// col2im into the (disjoint) bottom diff slice. Partials fold on chain -1
// (the default stream) after the batch barrier.
func (l *ConvLayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	width := ctx.Width()
	l.leaseScratch(width, true)
	err := l.backwardDispatch(ctx, top, propagate, bottom, width)
	berr := ctx.Barrier()
	l.releaseScratch()
	if err != nil {
		return err
	}
	return berr
}

func (l *ConvLayer) backwardDispatch(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob, width int) error {
	if ctx.Compute {
		// Arena slabs arrive with unspecified contents; the partials
		// accumulate (beta=1), so they must start from zero every pass.
		for j := 0; j < width; j++ {
			zero(l.partW[j].Data)
			if l.bias != nil {
				zero(l.partB[j].Data)
			}
		}
	}
	n := bottom[0].Num()
	w := l.weight.Data.Data()
	var pwT *tensor.PackedA
	if propagate[0] {
		pwT = l.packedW(ctx, true)
	}
	par := ctx.RowPar()
	for i := 0; i < n; i++ {
		chain := i
		j := i % width
		img := bottom[0].SampleData(i)
		dst, buf := l.column(j, img)
		dtop := top[0].SampleDiff(i)
		tag := l.tags[i]

		if err := ctx.Dispatch(kernels.Im2col(tag, img, l.geom, dst), chain); err != nil {
			return err
		}
		// dW_j += dTop(Co×P) · colᵀ(P×K)
		if err := ctx.Dispatch(kernels.Sgemm(tag, par, nil, false, true, l.co, l.k, l.p, 1, dtop, buf, 1, l.partW[j].Data, nil, 0), chain); err != nil {
			return err
		}
		if l.bias != nil {
			db := l.partB[j].Data
			co, p := l.co, l.p
			if err := ctx.Dispatch(kernels.BiasBackward(tag, co, p, dtop, l.onesP, db), chain); err != nil {
				return err
			}
		}
		if propagate[0] {
			dcol := l.dcolBufs[j].Data
			if err := ctx.Dispatch(kernels.Sgemm(tag, par, pwT, true, false, l.k, l.p, l.co, 1, w, dtop, 0, dcol, nil, 0), chain); err != nil {
				return err
			}
			dimg := bottom[0].SampleDiff(i)
			if err := ctx.Dispatch(kernels.Col2im(tag, dcol, l.geom, dimg), chain); err != nil {
				return err
			}
		}
	}
	if err := ctx.Barrier(); err != nil {
		return err
	}
	// Deterministic fold of the per-chain partials, on the default stream.
	dw := l.weight.Diff.Data()
	for j := 0; j < width; j++ {
		part := l.partW[j].Data
		if err := ctx.Dispatch(kernels.AxpyKernel("axpy_fold_w", l.name, len(part), func() {
			tensor.Axpy(1, part, dw)
		}), -1); err != nil {
			return err
		}
	}
	if l.bias != nil {
		db := l.bias.Diff.Data()
		for j := 0; j < width; j++ {
			part := l.partB[j].Data
			if err := ctx.Dispatch(kernels.AxpyKernel("axpy_fold_b", l.name, len(part), func() {
				tensor.Axpy(1, part, db)
			}), -1); err != nil {
				return err
			}
		}
	}
	return nil
}

func zero(s []float32) {
	for i := range s {
		s[i] = 0
	}
}
