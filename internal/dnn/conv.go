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

	// Prebuilt launch sites, per image i (chain i), built in Setup: the
	// forward im2col, GEMM — by fused epilogue ops, 0 plain, 1 bias or ReLU,
	// 2 both — and separate bias pass; the backward im2col, dW GEMM, bias
	// gradient, dcol GEMM and col2im. foldW/foldB fold chain j's partials
	// and grow with the widest plan seen. epis are the per-image fused
	// epilogues.
	fwdIm2col, fwdBias                       []desc
	fwdGemm                                  [3][]desc
	bwdIm2col, bwdW, bwdB, bwdCol, bwdCol2im []desc
	foldW, foldB                             []desc
	epis                                     []tensor.GemmEpilogue

	// The pass's operands, set before it dispatches and read by the
	// closures when they run: the bottom and top, the launcher width (chain
	// i uses scratch i % width), the row-parallel runner, the packed GEMM A
	// operand, and the fused epilogue's bias and ReLU destination.
	x, y             *Blob
	width            int
	par              tensor.RowParallel
	pw               *tensor.PackedA
	epiBias, epiReLU []float32
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
	fillParam(ctx, l.weight, l.cfg.WeightFiller, rng)
	l.param = []*Blob{l.weight}
	if l.cfg.Bias {
		l.bias = NewBlob(l.name+".bias", l.co)
		l.bias.LrMult, l.bias.DecayMult = 2, 0
		fillParam(ctx, l.bias, l.cfg.BiasFiller, rng)
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
	l.describe()
	return nil
}

// describe builds the per-image launch sites. A 1×1 shortcut conv's im2col
// launches with no host work: its GEMMs read the image in place.
func (l *ConvLayer) describe() {
	n, fk, bk := len(l.tags), fwdKey(l.name), bwdKey(l.name)
	sites := func() []desc { return make([]desc, n) }
	l.fwdIm2col, l.fwdBias = sites(), sites()
	l.fwdGemm = [3][]desc{sites(), sites(), sites()}
	l.bwdIm2col, l.bwdW, l.bwdB, l.bwdCol, l.bwdCol2im = sites(), sites(), sites(), sites(), sites()
	l.epis = make([]tensor.GemmEpilogue, n)
	for i, tag := range l.tags {
		var im2col func()
		if !l.is1x1 {
			im2col = func() { tensor.Im2col(l.x.SampleData(i), l.geom, l.column(i)) }
		}
		l.epis[i] = func(row, col int, seg []float32) { l.epilogue(i, row, col, seg) }
		l.fwdIm2col[i] = desc{kernels.Im2col(fk, tag, l.geom), im2col}
		plain, fused := func() { l.forwardGemm(i, nil) }, func() { l.forwardGemm(i, l.epis[i]) }
		for ops := range l.fwdGemm {
			fn := fused
			if ops == 0 {
				fn = plain
			}
			l.fwdGemm[ops][i] = desc{kernels.Sgemm(fk, tag, l.co, l.p, l.k, float64(ops)), fn}
		}
		l.fwdBias[i] = desc{kernels.BiasGemm(fk, tag, l.co, l.p), func() {
			tensor.Gemm(false, false, l.co, l.p, 1, 1, l.bias.Data.Data(), l.onesP, 1, l.y.SampleData(i))
		}}
		l.bwdIm2col[i] = desc{kernels.Im2col(bk, tag, l.geom), im2col}
		// dW_j += dTop(Co×P) · colᵀ(P×K)
		l.bwdW[i] = desc{kernels.Sgemm(bk, tag, l.co, l.k, l.p, 0), func() {
			tensor.GemmParallelPacked(l.par, nil, false, true, l.co, l.k, l.p, 1, l.y.SampleDiff(i), l.column(i), 1, l.partW[i%l.width].Data, nil)
		}}
		l.bwdB[i] = desc{kernels.BiasBackward(bk, tag, l.co, l.p), func() {
			tensor.Gemv(false, l.co, l.p, 1, l.y.SampleDiff(i), l.onesP, 1, l.partB[i%l.width].Data)
		}}
		// dcol = Wᵀ(K×Co) · dTop(Co×P)
		l.bwdCol[i] = desc{kernels.Sgemm(bk, tag, l.k, l.p, l.co, 0), func() {
			tensor.GemmParallelPacked(l.par, l.pw, true, false, l.k, l.p, l.co, 1, l.weight.Data.Data(), l.y.SampleDiff(i), 0, l.dcolBufs[i%l.width].Data, nil)
		}}
		l.bwdCol2im[i] = desc{kernels.Col2im(bk, tag, l.geom), func() {
			tensor.Col2im(l.dcolBufs[i%l.width].Data, l.geom, l.x.SampleDiff(i))
		}}
	}
	l.foldW, l.foldB = nil, nil
}

// forwardGemm is image i's top = W(Co×K) · col(K×P), with epi fused.
func (l *ConvLayer) forwardGemm(i int, epi tensor.GemmEpilogue) {
	tensor.GemmParallelPacked(l.par, l.pw, false, false, l.co, l.p, l.k, 1, l.weight.Data.Data(), l.column(i), 0, l.y.SampleData(i), epi)
}

// growFolds extends the fold sites to width chains. Chain j's closures fold
// its partials into the parameter gradients read when they run, so a
// Compact that replaced them is followed.
func (l *ConvLayer) growFolds(width int) {
	for j := len(l.foldW); j < width; j++ {
		bk := bwdKey(l.name)
		l.foldW = append(l.foldW, desc{kernels.AxpyKernel("axpy_fold_w", bk, l.name, l.weight.Count()), func() {
			tensor.Axpy(1, l.partW[j].Data, l.weight.Diff.Data())
		}})
		if l.bias != nil {
			l.foldB = append(l.foldB, desc{kernels.AxpyKernel("axpy_fold_b", bk, l.name, l.co), func() {
				tensor.Axpy(1, l.partB[j].Data, l.bias.Diff.Data())
			}})
		}
	}
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

// column returns the column matrix image i's GEMMs read: its chain's
// im2col scratch, or for the 1×1 shortcut the image itself.
func (l *ConvLayer) column(i int) []float32 {
	if l.is1x1 {
		return l.x.SampleData(i)
	}
	return l.colBufs[i%l.width].Data
}

// bind makes the pass's operands the closures read.
func (l *ConvLayer) bind(ctx *Context, bottom, top *Blob, width int) {
	l.x, l.y, l.width, l.par = bottom, top, width, ctx.RowPar()
}

// Forward implements Layer: per-image im2col → sgemm → gemmk chains.
// Scratch is leased from the shared arena for the pass and released only
// after the barrier has retired every closure that references it.
func (l *ConvLayer) Forward(ctx *Context, bottom, top []*Blob) error {
	width := ctx.Width()
	l.bind(ctx, bottom[0], top[0], width)
	l.leaseScratch(width, false)
	err := l.forwardDispatch(ctx)
	berr := ctx.Barrier()
	l.releaseScratch()
	if err != nil {
		return err
	}
	return berr
}

func (l *ConvLayer) forwardDispatch(ctx *Context) error {
	l.pw = l.packedW(ctx, false)
	// Bias (and ReLU co-write) ride a fused GEMM's epilogue; the separate
	// gemmk/relu_fwd kernels never launch. Bitwise identical outputs — see
	// fusion.go.
	l.epiBias, l.epiReLU = nil, nil
	ops := 0
	if l.fuseBias && l.bias != nil {
		l.epiBias = l.bias.Data.Data()
		ops++
	}
	if l.fusedReLU != nil {
		l.epiReLU = l.fusedReLU.Data.Data()
		ops++
	}
	for i := range l.tags {
		if err := ctx.launch(&l.fwdIm2col[i], i); err != nil {
			return err
		}
		if err := ctx.launch(&l.fwdGemm[ops][i], i); err != nil {
			return err
		}
		if ops == 0 && l.bias != nil {
			if err := ctx.launch(&l.fwdBias[i], i); err != nil {
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
	l.bind(ctx, bottom[0], top[0], width)
	l.leaseScratch(width, true)
	err := l.backwardDispatch(ctx, propagate[0], width)
	berr := ctx.Barrier()
	l.releaseScratch()
	if err != nil {
		return err
	}
	return berr
}

func (l *ConvLayer) backwardDispatch(ctx *Context, propagate bool, width int) error {
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
	l.pw = nil
	if propagate {
		l.pw = l.packedW(ctx, true)
	}
	for i := range l.tags {
		if err := ctx.launch(&l.bwdIm2col[i], i); err != nil {
			return err
		}
		if err := ctx.launch(&l.bwdW[i], i); err != nil {
			return err
		}
		if l.bias != nil {
			if err := ctx.launch(&l.bwdB[i], i); err != nil {
				return err
			}
		}
		if propagate {
			if err := ctx.launch(&l.bwdCol[i], i); err != nil {
				return err
			}
			if err := ctx.launch(&l.bwdCol2im[i], i); err != nil {
				return err
			}
		}
	}
	if err := ctx.Barrier(); err != nil {
		return err
	}
	// Deterministic fold of the per-chain partials, on the default stream.
	l.growFolds(width)
	for j := 0; j < width; j++ {
		if err := ctx.launch(&l.foldW[j], -1); err != nil {
			return err
		}
	}
	if l.bias != nil {
		for j := 0; j < width; j++ {
			if err := ctx.launch(&l.foldB[j], -1); err != nil {
				return err
			}
		}
	}
	return nil
}

// epilogue is image i's fused output transform: the per-channel bias add
// (replicating the separate gemmk pass's zero screening bit for bit)
// followed by the ReLU co-write into the fused activation's top. It
// allocates nothing and touches seg plus its own disjoint destination —
// safe on pool workers (see tensor.GemmEpilogue).
func (l *ConvLayer) epilogue(i, row, col int, seg []float32) {
	if l.epiBias != nil {
		// A zero bias channel is skipped exactly like the separate pass's
		// av==0 screen: adding +0 would normalize -0 outputs.
		if bv := l.epiBias[row]; bv != 0 {
			for j := range seg {
				seg[j] += bv
			}
		}
	}
	if l.epiReLU != nil {
		at := (i*l.co+row)*l.p + col
		dst := l.epiReLU[at : at+len(seg)]
		for j, v := range seg {
			if v > 0 {
				dst[j] = v
			} else {
				dst[j] = 0
			}
		}
	}
}

func zero(s []float32) {
	for i := range s {
		s[i] = 0
	}
}
