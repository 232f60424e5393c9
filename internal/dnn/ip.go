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
	l.cfg.WeightFiller.Fill(l.weight.Data, rng)
	l.param = []*Blob{l.weight}
	if l.cfg.Bias {
		l.bias = NewBlob(l.name+".bias", l.out)
		l.bias.LrMult, l.bias.DecayMult = 2, 0
		l.cfg.BiasFiller.Fill(l.bias.Data, rng)
		l.param = append(l.param, l.bias)
	}
	top[0].Reshape(b.Num(), l.out)
	l.onesN = make([]float32, b.Num())
	for i := range l.onesN {
		l.onesN[i] = 1
	}
	return nil
}

// Forward implements Layer.
func (l *IPLayer) Forward(ctx *Context, bottom, top []*Blob) error {
	n := bottom[0].Num()
	x := bottom[0].Data.Data()
	y := top[0].Data.Data()
	w := l.weight.Data.Data()
	// y = x(N×In) · Wᵀ(In×Out). FC layers run one whole-batch GEMM on a
	// single chain, so row-band parallelism is what puts the pool to work.
	fused := l.fuseBias && l.bias != nil
	var epi tensor.GemmEpilogue
	if fused {
		bias := l.bias.Data.Data()
		// The separate pass is ones(N×1)·bias(1×Out) with av = 1·1 never
		// zero, so the fused add is unconditional: y[i,j] += 1·bias[j],
		// and 1·b is bitwise b. See fusion.go for the full contract.
		epi = func(row, col int, seg []float32) {
			bseg := bias[col : col+len(seg)]
			for j, bv := range bseg {
				seg[j] += bv
			}
		}
	}
	if err := ctx.Dispatch(kernels.Sgemm(l.name, ctx.RowPar(), nil, false, true, n, l.out, l.in, 1, x, w, 0, y, epi, 1), 0); err != nil {
		return err
	}
	if !fused && l.bias != nil {
		// y += ones(N×1)·bias(1×Out)
		if err := ctx.Dispatch(kernels.BiasGemm(l.name, n, l.out, l.onesN, l.bias.Data.Data(), y), 0); err != nil {
			return err
		}
	}
	return ctx.Barrier()
}

// Backward implements Layer.
func (l *IPLayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	n := bottom[0].Num()
	x := bottom[0].Data.Data()
	dy := top[0].Diff.Data()
	// dW += dyᵀ(Out×N)·x(N×In)
	dw := l.weight.Diff.Data()
	if err := ctx.Dispatch(kernels.Sgemm(l.name, ctx.RowPar(), nil, true, false, l.out, l.in, n, 1, dy, x, 1, dw, nil, 0), 0); err != nil {
		return err
	}
	if l.bias != nil {
		// db += dyᵀ(Out×N)·ones(N); dy is stored N×Out, so this is the
		// transposed GEMV.
		db := l.bias.Diff.Data()
		out := l.out
		k := kernels.Elementwise("gemv_bias_bwd", l.name, n*out, 4, 2, func() {
			tensor.Gemv(true, n, out, 1, dy, l.onesN, 1, db)
		})
		if err := ctx.Dispatch(k, 0); err != nil {
			return err
		}
	}
	if propagate[0] {
		// dx += dy(N×Out)·W(Out×In)
		dx := bottom[0].Diff.Data()
		w := l.weight.Data.Data()
		if err := ctx.Dispatch(kernels.Sgemm(l.name, ctx.RowPar(), nil, false, false, n, l.in, l.out, 1, dy, w, 1, dx, nil, 0), 0); err != nil {
			return err
		}
	}
	return ctx.Barrier()
}
