package dnn

import (
	"fmt"

	"repro/internal/kernels"
	"repro/internal/tensor"
)

// RNNConfig parameterizes a vanilla (Elman) recurrent layer.
type RNNConfig struct {
	Hidden       int
	WeightFiller tensor.Filler
	BiasFiller   tensor.Filler
	Seed         int64
}

// RNNLayer is a tanh Elman RNN over (N, T, D) inputs producing the full
// hidden sequence (N, T, H):
//
//	h_t = tanh(Wx·x_t + Wh·h_{t−1} + b),  h_0 = 0.
//
// It exists to exercise the paper's network-agnostic claim beyond CNNs
// ("samples from the same batch can be independently processed in parallel
// ... including CNNs and RNNs"): each batch sample's timestep recurrence is
// one dependency chain of T kernels, so GLP4NN overlaps *samples* while the
// chain preserves the sequential dependence *within* a sample — exactly the
// batch-level parallelism of Algorithms 1/2 applied to recurrence.
// Weight gradients use the same per-chain partial buffers + fixed-order
// fold as convolution.
type RNNLayer struct {
	baseLayer
	cfg RNNConfig

	wx *Blob // (H, D)
	wh *Blob // (H, H)
	b  *Blob // (H)

	n, t, d, h int

	hs  []float32 // cached hidden states: N × (T+1) × H, hs[.,0,.] = 0
	pre []float32 // cached pre-activations: N × T × H (for backward)

	// Per-chain backward scratch, leased from the shared tensor arena for
	// one pass and released after the final fold barrier (see ConvLayer).
	partWx  []*tensor.Buf
	partWh  []*tensor.Buf
	partB   []*tensor.Buf
	dhBuf   []*tensor.Buf // per-chain dh_{t} carry
	dpreBuf []*tensor.Buf // per-chain dpre scratch (was a per-step alloc)

	// Prebuilt launch sites: per sample n (chain n) the forward steps
	// fwd[n][t], the backward carry reset bwdInit[n] and the reversed
	// backward steps bwd[n][t]; fold[kind][j] folds chain j's partials,
	// grown with the widest plan seen. Their closures read the pass's
	// operands from the fields below.
	fwd, bwd [][]desc
	bwdInit  []desc
	fold     [3][]desc // wx, wh, b
	x, y     *Blob
	width    int
	prop     bool
}

// NewRNN constructs a recurrent layer.
func NewRNN(name string, cfg RNNConfig) *RNNLayer {
	if cfg.WeightFiller == nil {
		cfg.WeightFiller = tensor.XavierFiller{}
	}
	if cfg.BiasFiller == nil {
		cfg.BiasFiller = tensor.ConstantFiller{Value: 0}
	}
	return &RNNLayer{baseLayer: baseLayer{name: name, typ: "RNN"}, cfg: cfg}
}

// Setup implements Layer. Bottom must be (N, T, D).
func (l *RNNLayer) Setup(ctx *Context, bottom, top []*Blob) error {
	if len(bottom) != 1 || len(top) != 1 {
		return fmt.Errorf("rnn %s: want 1 bottom and 1 top", l.name)
	}
	if bottom[0].Data.NumDims() != 3 {
		return fmt.Errorf("rnn %s: bottom must be (N,T,D), got %v", l.name, bottom[0].Shape())
	}
	if l.cfg.Hidden <= 0 {
		return fmt.Errorf("rnn %s: hidden size must be positive", l.name)
	}
	sh := bottom[0].Shape()
	l.n, l.t, l.d = sh[0], sh[1], sh[2]
	l.h = l.cfg.Hidden

	rng := fillerRNG(l.cfg.Seed, l.name)
	l.wx = NewBlob(l.name+".wx", l.h, l.d)
	fillParam(ctx, l.wx, l.cfg.WeightFiller, rng)
	l.wh = NewBlob(l.name+".wh", l.h, l.h)
	fillParam(ctx, l.wh, l.cfg.WeightFiller, rng)
	if ctx.Compute {
		// Scale the recurrent matrix down for stability over long horizons.
		tensor.Scal(0.5, l.wh.Data.Data())
	}
	l.b = NewBlob(l.name+".bias", l.h)
	l.b.LrMult, l.b.DecayMult = 2, 0
	fillParam(ctx, l.b, l.cfg.BiasFiller, rng)
	l.param = []*Blob{l.wx, l.wh, l.b}

	top[0].Reshape(l.n, l.t, l.h)
	l.hs = make([]float32, l.n*(l.t+1)*l.h)
	l.pre = make([]float32, l.n*l.t*l.h)

	fk, bk := fwdKey(l.name), bwdKey(l.name)
	l.fwd, l.bwd, l.bwdInit = make([][]desc, l.n), make([][]desc, l.n), make([]desc, l.n)
	for n := range l.fwd {
		tag := fmt.Sprintf("%s/n%d", l.name, n)
		l.bwdInit[n] = desc{kernels.AxpyKernel("rnn_bwd_init", bk, tag, l.h), func() { zero(l.dhBuf[n%l.width].Data) }}
		l.fwd[n], l.bwd[n] = make([]desc, l.t), make([]desc, l.t)
		for t := range l.fwd[n] {
			l.fwd[n][t] = desc{kernels.Elementwise("rnn_step", fk, tag, l.h, 4*float64(l.d+l.h+3), float64(2*(l.d+l.h)+8)), func() { l.stepHost(n, t) }}
			// bwd[n][k] is the k-th step of sample n's reversed chain.
			bt := l.t - 1 - t
			l.bwd[n][t] = desc{kernels.Elementwise("rnn_step_bwd", bk, tag, l.h, 4*float64(l.d+2*l.h+4), float64(4*(l.d+l.h)+10)), func() { l.stepBackHost(n, bt) }}
		}
	}
	l.fold = [3][]desc{}
	return nil
}

func (l *RNNLayer) leaseScratch(width int) {
	l.partWx = tensor.LeaseInto(l.partWx, width, l.h*l.d)
	l.partWh = tensor.LeaseInto(l.partWh, width, l.h*l.h)
	l.partB = tensor.LeaseInto(l.partB, width, l.h)
	l.dhBuf = tensor.LeaseInto(l.dhBuf, width, l.h)
	l.dpreBuf = tensor.LeaseInto(l.dpreBuf, width, l.h)
}

func (l *RNNLayer) releaseScratch() {
	tensor.PutBufs(l.partWx)
	tensor.PutBufs(l.partWh)
	tensor.PutBufs(l.partB)
	tensor.PutBufs(l.dhBuf)
	tensor.PutBufs(l.dpreBuf)
}

// Forward implements Layer: per sample, a chain of T rnn_step kernels.
func (l *RNNLayer) Forward(ctx *Context, bottom, top []*Blob) error {
	l.x, l.y = bottom[0], top[0]
	for n, steps := range l.fwd {
		for t := range steps {
			if err := ctx.launch(&steps[t], n); err != nil {
				return err
			}
		}
	}
	return ctx.Barrier()
}

// stepHost is sample n's timestep t: h_t = tanh(Wx·x_t + Wh·h_{t−1} + b).
func (l *RNNLayer) stepHost(n, t int) {
	x, y := l.x.Data.Data(), l.y.Data.Data()
	hPrev := l.hs[(n*(l.t+1)+t)*l.h : (n*(l.t+1)+t+1)*l.h]
	hCur := l.hs[(n*(l.t+1)+t+1)*l.h : (n*(l.t+1)+t+2)*l.h]
	xt := x[(n*l.t+t)*l.d : (n*l.t+t+1)*l.d]
	preT := l.pre[(n*l.t+t)*l.h : (n*l.t+t+1)*l.h]
	copy(preT, l.b.Data.Data())
	tensor.Gemv(false, l.h, l.d, 1, l.wx.Data.Data(), xt, 1, preT)
	tensor.Gemv(false, l.h, l.h, 1, l.wh.Data.Data(), hPrev, 1, preT)
	out := y[(n*l.t+t)*l.h : (n*l.t+t+1)*l.h]
	for i, v := range preT {
		hv := tanh32(v)
		hCur[i] = hv
		out[i] = hv
	}
}

// Backward implements Layer: per sample, BPTT as a chain of T reversed
// rnn_step_bwd kernels; weight gradients land in per-chain partials.
func (l *RNNLayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	width := ctx.Width()
	l.x, l.y, l.width, l.prop = bottom[0], top[0], width, propagate[0]
	l.leaseScratch(width)
	err := l.backwardDispatch(ctx, width)
	berr := ctx.Barrier()
	l.releaseScratch()
	if err != nil {
		return err
	}
	return berr
}

func (l *RNNLayer) backwardDispatch(ctx *Context, width int) error {
	if ctx.Compute {
		// Arena slabs arrive with unspecified contents; the accumulating
		// partials must start the pass at zero.
		for j := 0; j < width; j++ {
			zero(l.partWx[j].Data)
			zero(l.partWh[j].Data)
			zero(l.partB[j].Data)
		}
	}
	for n, steps := range l.bwd {
		// reset dh carry for this chain
		if err := ctx.launch(&l.bwdInit[n], n); err != nil {
			return err
		}
		for t := range steps {
			if err := ctx.launch(&steps[t], n); err != nil {
				return err
			}
		}
	}
	if err := ctx.Barrier(); err != nil {
		return err
	}
	// Fixed-order fold of partials, on the default stream.
	l.growFolds(width)
	for kind := range l.fold {
		for j := 0; j < width; j++ {
			if err := ctx.launch(&l.fold[kind][j], -1); err != nil {
				return err
			}
		}
	}
	return nil
}

// stepBackHost is sample n's BPTT step at timestep t.
func (l *RNNLayer) stepBackHost(n, t int) {
	j := n % l.width
	dh := l.dhBuf[j].Data
	dy := l.y.Diff.Data()
	for i := 0; i < l.h; i++ {
		dh[i] += dy[(n*l.t+t)*l.h+i]
	}
	// through tanh: dpre = dh ⊙ (1 − h²). Chains sharing lane j run
	// serialized, so the per-chain scratch replaces what used to be a
	// per-step allocation.
	hCur := l.hs[(n*(l.t+1)+t+1)*l.h : (n*(l.t+1)+t+2)*l.h]
	dpre := l.dpreBuf[j].Data
	for i := 0; i < l.h; i++ {
		dpre[i] = dh[i] * (1 - hCur[i]*hCur[i])
	}
	xt := l.x.Data.Data()[(n*l.t+t)*l.d : (n*l.t+t+1)*l.d]
	hPrev := l.hs[(n*(l.t+1)+t)*l.h : (n*(l.t+1)+t+1)*l.h]
	// dWx += dpre ⊗ xt ; dWh += dpre ⊗ hPrev ; db += dpre
	pwx, pwh, pb := l.partWx[j].Data, l.partWh[j].Data, l.partB[j].Data
	for i := 0; i < l.h; i++ {
		g := dpre[i]
		if g == 0 {
			continue
		}
		tensor.Axpy(g, xt, pwx[i*l.d:(i+1)*l.d])
		tensor.Axpy(g, hPrev, pwh[i*l.h:(i+1)*l.h])
		pb[i] += g
	}
	if l.prop {
		// dx_t += Wxᵀ·dpre
		tensor.Gemv(true, l.h, l.d, 1, l.wx.Data.Data(), dpre, 1, l.x.Diff.Data()[(n*l.t+t)*l.d:(n*l.t+t+1)*l.d])
	}
	// dh_{t−1} = Whᵀ·dpre
	zero(dh)
	tensor.Gemv(true, l.h, l.h, 1, l.wh.Data.Data(), dpre, 1, dh)
}

// growFolds extends the fold sites to width chains; chain j's closures fold
// its partials into the parameter gradients read when they run.
func (l *RNNLayer) growFolds(width int) {
	for j := len(l.fold[0]); j < width; j++ {
		bk := bwdKey(l.name)
		for kind, f := range []struct {
			name  string
			parts *[]*tensor.Buf
			param *Blob
		}{{"axpy_fold_wx", &l.partWx, l.wx}, {"axpy_fold_wh", &l.partWh, l.wh}, {"axpy_fold_b", &l.partB, l.b}} {
			l.fold[kind] = append(l.fold[kind], desc{kernels.AxpyKernel(f.name, bk, l.name, f.param.Count()), func() {
				tensor.Axpy(1, (*f.parts)[j].Data, f.param.Diff.Data())
			}})
		}
	}
}
