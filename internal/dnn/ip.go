package dnn

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// IPConfig describes an inner-product (fully connected) layer.
type IPConfig struct {
	NumOutput    int
	Bias         bool
	WeightFiller tensor.Filler
	BiasFiller   tensor.Filler
	Seed         int64
}

// IP builds the common config.
func IP(numOutput int) IPConfig {
	return IPConfig{NumOutput: numOutput, Bias: true}
}

// IPLayer is Caffe's InnerProduct: top(N×Out) = bottom(N×In)·Wᵀ + 1·bᵀ,
// computed as whole-batch GEMMs (Caffe does not split FC layers per image;
// one GEMM already fills the device, which is why GLP4NN targets
// convolutions).
type IPLayer struct {
	baseLayer
	cfg IPConfig

	weight *Blob // (Out, In)
	bias   *Blob // (Out)
	in     int
	out    int
	onesN  []float32

	// fuseBias (set by Net.EnableFusion, see fusion.go) folds the
	// ones·biasᵀ rank-one pass into the forward GEMM's epilogue.
	fuseBias bool

	// Prebuilt launch sites: the forward GEMM plain and with the fused bias
	// epilogue, the separate bias pass, and the three backward kernels.
	// Their closures read the pass's operands from the fields below.
	fwd, fwdFused, fwdBias, bwdW, bwdB, bwdX desc
	x, y                                     *Blob
	par                                      tensor.RowParallel
	epi                                      tensor.GemmEpilogue // the fused bias add, built once
}

// NewIP constructs an inner-product layer.
func NewIP(name string, cfg IPConfig) *IPLayer {
	if cfg.WeightFiller == nil {
		cfg.WeightFiller = tensor.XavierFiller{}
	}
	if cfg.BiasFiller == nil {
		cfg.BiasFiller = tensor.ConstantFiller{Value: 0}
	}
	return &IPLayer{baseLayer: baseLayer{name: name, typ: "InnerProduct"}, cfg: cfg}
}

// Setup implements Layer.
func (l *IPLayer) Setup(ctx *Context, bottom, top []*Blob) error {
	if len(bottom) != 1 || len(top) != 1 {
		return fmt.Errorf("ip %s: want 1 bottom and 1 top", l.name)
	}
	b := bottom[0]
	l.in = b.SampleSize()
	l.out = l.cfg.NumOutput
	rng := fillerRNG(l.cfg.Seed, l.name)
	l.weight = NewBlob(l.name+".weight", l.out, l.in)
	fillParam(ctx, l.weight, l.cfg.WeightFiller, rng)
	l.param = []*Blob{l.weight}
	if l.cfg.Bias {
		l.bias = NewBlob(l.name+".bias", l.out)
		l.bias.LrMult, l.bias.DecayMult = 2, 0
		fillParam(ctx, l.bias, l.cfg.BiasFiller, rng)
		l.param = append(l.param, l.bias)
	}
	n := b.Num()
	top[0].Reshape(n, l.out)
	l.onesN = make([]float32, n)
	for i := range l.onesN {
		l.onesN[i] = 1
	}
	fk, bk := fwdKey(l.name), bwdKey(l.name)
	l.epi = l.biasEpilogue
	l.fwd = desc{kernels.Sgemm(fk, l.name, n, l.out, l.in, 0), func() { l.forwardGemm(nil) }}
	l.fwdFused = desc{kernels.Sgemm(fk, l.name, n, l.out, l.in, 1), func() { l.forwardGemm(l.epi) }}
	// y += ones(N×1)·bias(1×Out)
	l.fwdBias = desc{kernels.BiasGemm(fk, l.name, n, l.out), func() {
		tensor.Gemm(false, false, n, l.out, 1, 1, l.onesN, l.bias.Data.Data(), 1, l.y.Data.Data())
	}}
	// dW += dyᵀ(Out×N)·x(N×In)
	l.bwdW = desc{kernels.Sgemm(bk, l.name, l.out, l.in, n, 0), func() {
		tensor.GemmParallelPacked(l.par, nil, true, false, l.out, l.in, n, 1, l.y.Diff.Data(), l.x.Data.Data(), 1, l.weight.Diff.Data(), nil)
	}}
	// db += dyᵀ(Out×N)·ones(N); dy is stored N×Out, so this is the
	// transposed GEMV.
	l.bwdB = desc{kernels.BiasBackward(bk, l.name, n, l.out), func() {
		tensor.Gemv(true, n, l.out, 1, l.y.Diff.Data(), l.onesN, 1, l.bias.Diff.Data())
	}}
	// dx += dy(N×Out)·W(Out×In)
	l.bwdX = desc{kernels.Sgemm(bk, l.name, n, l.in, l.out, 0), func() {
		tensor.GemmParallelPacked(l.par, nil, false, false, n, l.in, l.out, 1, l.y.Diff.Data(), l.weight.Data.Data(), 1, l.x.Diff.Data(), nil)
	}}
	return nil
}

// forwardGemm is y = x(N×In) · Wᵀ(In×Out), with epi fused. FC layers run
// one whole-batch GEMM on a single chain, so row-band parallelism is what
// puts the pool to work.
func (l *IPLayer) forwardGemm(epi tensor.GemmEpilogue) {
	tensor.GemmParallelPacked(l.par, nil, false, true, l.x.Num(), l.out, l.in, 1, l.x.Data.Data(), l.weight.Data.Data(), 0, l.y.Data.Data(), epi)
}

// biasEpilogue is the fused bias add. The separate pass is
// ones(N×1)·bias(1×Out) with av = 1·1 never zero, so the fused add is
// unconditional: y[i,j] += 1·bias[j], and 1·b is bitwise b. See fusion.go
// for the full contract.
func (l *IPLayer) biasEpilogue(row, col int, seg []float32) {
	for j, bv := range l.bias.Data.Data()[col : col+len(seg)] {
		seg[j] += bv
	}
}

// Forward implements Layer.
func (l *IPLayer) Forward(ctx *Context, bottom, top []*Blob) error {
	l.x, l.y, l.par = bottom[0], top[0], ctx.RowPar()
	fused := l.fuseBias && l.bias != nil
	gemm := &l.fwd
	if fused {
		gemm = &l.fwdFused
	}
	if err := ctx.launch(gemm, 0); err != nil {
		return err
	}
	if !fused && l.bias != nil {
		if err := ctx.launch(&l.fwdBias, 0); err != nil {
			return err
		}
	}
	return ctx.Barrier()
}

// Backward implements Layer.
func (l *IPLayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	l.x, l.y, l.par = bottom[0], top[0], ctx.RowPar()
	if err := ctx.launch(&l.bwdW, 0); err != nil {
		return err
	}
	if l.bias != nil {
		if err := ctx.launch(&l.bwdB, 0); err != nil {
			return err
		}
	}
	if propagate[0] {
		if err := ctx.launch(&l.bwdX, 0); err != nil {
			return err
		}
	}
	return ctx.Barrier()
}
