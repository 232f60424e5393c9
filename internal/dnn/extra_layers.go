package dnn

import (
	"fmt"

	"repro/internal/kernels"
)

// TanHLayer is the hyperbolic-tangent activation (LeNet's classic
// nonlinearity; Caffe's TanH layer).
type TanHLayer struct {
	baseLayer
	unaryOps
}

// NewTanH constructs a tanh layer.
func NewTanH(name string) *TanHLayer {
	return &TanHLayer{baseLayer: baseLayer{name: name, typ: "TanH"}}
}

// Setup implements Layer.
func (l *TanHLayer) Setup(ctx *Context, bottom, top []*Blob) error {
	if len(bottom) != 1 || len(top) != 1 {
		return fmt.Errorf("tanh %s: want 1 bottom and 1 top", l.name)
	}
	top[0].Reshape(bottom[0].Shape()...)
	n := bottom[0].Count()
	l.fwd = desc{kernels.Elementwise("tanh_fwd", fwdKey(l.name), l.name, n, 8, 6), l.forwardHost}
	l.bwd = desc{kernels.Elementwise("tanh_bwd", bwdKey(l.name), l.name, n, 12, 3), l.backwardHost}
	return nil
}

// Forward implements Layer.
func (l *TanHLayer) Forward(ctx *Context, bottom, top []*Blob) error {
	return l.forward(ctx, bottom, top)
}

func (l *TanHLayer) forwardHost() {
	dst := l.y.Data.Data()
	for i, v := range l.x.Data.Data() {
		dst[i] = tanh32(v)
	}
}

// Backward implements Layer: dx += dy·(1 − y²).
func (l *TanHLayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	return l.backward(ctx, top, propagate, bottom)
}

func (l *TanHLayer) backwardHost() {
	dy, dx := l.y.Diff.Data(), l.x.Diff.Data()
	for i, v := range l.y.Data.Data() {
		dx[i] += dy[i] * (1 - v*v)
	}
}

// ELULayer is the exponential linear unit (Caffe's ELU layer):
// y = x for x > 0, α(eˣ−1) otherwise.
type ELULayer struct {
	baseLayer
	alpha float32
	unaryOps
}

// NewELU constructs an ELU layer; alpha ≤ 0 defaults to 1.
func NewELU(name string, alpha float32) *ELULayer {
	if alpha <= 0 {
		alpha = 1
	}
	return &ELULayer{baseLayer: baseLayer{name: name, typ: "ELU"}, alpha: alpha}
}

// Setup implements Layer.
func (l *ELULayer) Setup(ctx *Context, bottom, top []*Blob) error {
	if len(bottom) != 1 || len(top) != 1 {
		return fmt.Errorf("elu %s: want 1 bottom and 1 top", l.name)
	}
	top[0].Reshape(bottom[0].Shape()...)
	n := bottom[0].Count()
	l.fwd = desc{kernels.Elementwise("elu_fwd", fwdKey(l.name), l.name, n, 8, 4), l.forwardHost}
	l.bwd = desc{kernels.Elementwise("elu_bwd", bwdKey(l.name), l.name, n, 16, 3), l.backwardHost}
	return nil
}

// Forward implements Layer.
func (l *ELULayer) Forward(ctx *Context, bottom, top []*Blob) error {
	return l.forward(ctx, bottom, top)
}

func (l *ELULayer) forwardHost() {
	dst := l.y.Data.Data()
	for i, v := range l.x.Data.Data() {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = l.alpha * (exp32(v) - 1)
		}
	}
}

// Backward implements Layer: dx += dy for x > 0, dy·(y + α) otherwise.
func (l *ELULayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	return l.backward(ctx, top, propagate, bottom)
}

func (l *ELULayer) backwardHost() {
	y, dy, dx := l.y.Data.Data(), l.y.Diff.Data(), l.x.Diff.Data()
	for i, v := range l.x.Data.Data() {
		if v > 0 {
			dx[i] += dy[i]
		} else {
			dx[i] += dy[i] * (y[i] + l.alpha)
		}
	}
}

// SoftmaxLayer is the standalone (non-loss) softmax over each sample's
// channel axis, like Caffe's Softmax layer (used in inference heads).
type SoftmaxLayer struct {
	baseLayer
	n, c int
	unaryOps
}

// NewSoftmax constructs a standalone softmax layer.
func NewSoftmax(name string) *SoftmaxLayer {
	return &SoftmaxLayer{baseLayer: baseLayer{name: name, typ: "Softmax"}}
}

// Setup implements Layer.
func (l *SoftmaxLayer) Setup(ctx *Context, bottom, top []*Blob) error {
	if len(bottom) != 1 || len(top) != 1 {
		return fmt.Errorf("softmax %s: want 1 bottom and 1 top", l.name)
	}
	l.n = bottom[0].Num()
	l.c = bottom[0].SampleSize()
	top[0].Reshape(bottom[0].Shape()...)
	n := bottom[0].Count()
	l.fwd = desc{kernels.Elementwise("softmax_fwd", fwdKey(l.name), l.name, n, 12, 6), l.forwardHost}
	l.bwd = desc{kernels.Elementwise("softmax_bwd", bwdKey(l.name), l.name, n, 16, 4), l.backwardHost}
	return nil
}

// Forward implements Layer.
func (l *SoftmaxLayer) Forward(ctx *Context, bottom, top []*Blob) error {
	return l.forward(ctx, bottom, top)
}

func (l *SoftmaxLayer) forwardHost() {
	src, dst := l.x.Data.Data(), l.y.Data.Data()
	for i := 0; i < l.n; i++ {
		softmaxRow(src[i*l.c:(i+1)*l.c], dst[i*l.c:(i+1)*l.c])
	}
}

// softmaxRow writes the softmax of row into out.
func softmaxRow(row, out []float32) {
	m := row[0]
	for _, v := range row {
		if v > m {
			m = v
		}
	}
	sum := float32(0)
	for j, v := range row {
		e := exp32(v - m)
		out[j] = e
		sum += e
	}
	inv := 1 / sum
	for j := range out {
		out[j] *= inv
	}
}

// Backward implements Layer: dx_j += y_j·(dy_j − Σ_k dy_k·y_k).
func (l *SoftmaxLayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	return l.backward(ctx, top, propagate, bottom)
}

func (l *SoftmaxLayer) backwardHost() {
	y, dy, dx := l.y.Data.Data(), l.y.Diff.Data(), l.x.Diff.Data()
	for i := 0; i < l.n; i++ {
		base := i * l.c
		dot := float32(0)
		for j := 0; j < l.c; j++ {
			dot += dy[base+j] * y[base+j]
		}
		for j := 0; j < l.c; j++ {
			dx[base+j] += y[base+j] * (dy[base+j] - dot)
		}
	}
}

// EltwiseOp selects the Eltwise layer's operation.
type EltwiseOp int

// Eltwise operations (Caffe supports PROD, SUM, MAX).
const (
	EltwiseSum EltwiseOp = iota
	EltwiseProd
	EltwiseMax
)

// EltwiseLayer combines same-shaped bottoms element-wise — the residual-sum
// building block.
type EltwiseLayer struct {
	baseLayer
	op     EltwiseOp
	coeffs []float32 // SUM only; nil = all ones
	argmax []int32   // MAX backward routing

	fwd  desc
	bwd  []desc // per bottom
	x    []*Blob
	y    *Blob
	srcs [][]float32 // the pass's bottom data, parallel to x
}

// NewEltwise constructs an eltwise layer; coeffs applies to SUM only.
func NewEltwise(name string, op EltwiseOp, coeffs []float32) *EltwiseLayer {
	return &EltwiseLayer{baseLayer: baseLayer{name: name, typ: "Eltwise"}, op: op, coeffs: coeffs}
}

// Setup implements Layer.
func (l *EltwiseLayer) Setup(ctx *Context, bottom, top []*Blob) error {
	if len(bottom) < 2 || len(top) != 1 {
		return fmt.Errorf("eltwise %s: want ≥2 bottoms and 1 top", l.name)
	}
	for _, b := range bottom[1:] {
		if b.Count() != bottom[0].Count() {
			return fmt.Errorf("eltwise %s: bottom size mismatch", l.name)
		}
	}
	if l.coeffs != nil && len(l.coeffs) != len(bottom) {
		return fmt.Errorf("eltwise %s: %d coeffs for %d bottoms", l.name, len(l.coeffs), len(bottom))
	}
	top[0].Reshape(bottom[0].Shape()...)
	if l.op == EltwiseMax {
		l.argmax = make([]int32, bottom[0].Count())
	}
	n := bottom[0].Count()
	l.fwd = desc{kernels.Elementwise("eltwise_fwd", fwdKey(l.name), l.name, n*len(bottom), 8, 2), l.forwardHost}
	l.bwd = make([]desc, len(bottom))
	for bi := range l.bwd {
		l.bwd[bi] = desc{kernels.Elementwise("eltwise_bwd", bwdKey(l.name), l.name, n, 12, 2), func() { l.backwardHost(bi) }}
	}
	l.srcs = make([][]float32, len(bottom))
	return nil
}

func (l *EltwiseLayer) coeff(i int) float32 {
	if l.coeffs == nil {
		return 1
	}
	return l.coeffs[i]
}

// bind makes bottom and top the pass's operands.
func (l *EltwiseLayer) bind(bottom, top []*Blob) {
	l.x, l.y = bottom, top[0]
	for i, b := range bottom {
		l.srcs[i] = b.Data.Data()
	}
}

// Forward implements Layer.
func (l *EltwiseLayer) Forward(ctx *Context, bottom, top []*Blob) error {
	l.bind(bottom, top)
	if err := ctx.launch(&l.fwd, 0); err != nil {
		return err
	}
	return ctx.Barrier()
}

func (l *EltwiseLayer) forwardHost() {
	dst, srcs := l.y.Data.Data(), l.srcs
	switch l.op {
	case EltwiseSum:
		for j := range dst {
			s := float32(0)
			for i, src := range srcs {
				s += l.coeff(i) * src[j]
			}
			dst[j] = s
		}
	case EltwiseProd:
		for j := range dst {
			p := float32(1)
			for _, src := range srcs {
				p *= src[j]
			}
			dst[j] = p
		}
	case EltwiseMax:
		for j := range dst {
			best := srcs[0][j]
			arg := int32(0)
			for i := 1; i < len(srcs); i++ {
				if srcs[i][j] > best {
					best = srcs[i][j]
					arg = int32(i)
				}
			}
			dst[j] = best
			l.argmax[j] = arg
		}
	}
}

// Backward implements Layer.
func (l *EltwiseLayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	l.bind(bottom, top)
	for bi := range bottom {
		if !propagate[bi] {
			continue
		}
		if err := ctx.launch(&l.bwd[bi], bi); err != nil {
			return err
		}
	}
	return ctx.Barrier()
}

// backwardHost accumulates bottom bi's gradient.
func (l *EltwiseLayer) backwardHost(bi int) {
	dy, y, dx, srcs := l.y.Diff.Data(), l.y.Data.Data(), l.x[bi].Diff.Data(), l.srcs
	switch l.op {
	case EltwiseSum:
		c := l.coeff(bi)
		for j, g := range dy {
			dx[j] += c * g
		}
	case EltwiseProd:
		for j, g := range dy {
			v := srcs[bi][j]
			if v != 0 {
				dx[j] += g * y[j] / v
			} else {
				// recompute the product of the others
				p := float32(1)
				for oi, src := range srcs {
					if oi != bi {
						p *= src[j]
					}
				}
				dx[j] += g * p
			}
		}
	case EltwiseMax:
		for j, g := range dy {
			if l.argmax[j] == int32(bi) {
				dx[j] += g
			}
		}
	}
}

// FlattenLayer reshapes (N, C, H, W) to (N, C·H·W) — a pure view layer, one
// copy kernel each way (Caffe shares data; we keep the no-in-place
// invariant).
type FlattenLayer struct {
	baseLayer
	unaryOps
}

// NewFlatten constructs a flatten layer.
func NewFlatten(name string) *FlattenLayer {
	return &FlattenLayer{baseLayer: baseLayer{name: name, typ: "Flatten"}}
}

// Setup implements Layer.
func (l *FlattenLayer) Setup(ctx *Context, bottom, top []*Blob) error {
	if len(bottom) != 1 || len(top) != 1 {
		return fmt.Errorf("flatten %s: want 1 bottom and 1 top", l.name)
	}
	top[0].Reshape(bottom[0].Num(), bottom[0].SampleSize())
	n := bottom[0].Count()
	l.fwd = desc{kernels.AxpyKernel("flatten_fwd", fwdKey(l.name), l.name, n), func() { copy(l.y.Data.Data(), l.x.Data.Data()) }}
	l.bwd = desc{kernels.AxpyKernel("flatten_bwd", bwdKey(l.name), l.name, n), l.backwardHost}
	return nil
}

// Forward implements Layer.
func (l *FlattenLayer) Forward(ctx *Context, bottom, top []*Blob) error {
	return l.forward(ctx, bottom, top)
}

// Backward implements Layer.
func (l *FlattenLayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	return l.backward(ctx, top, propagate, bottom)
}

func (l *FlattenLayer) backwardHost() {
	dx := l.x.Diff.Data()
	for i, v := range l.y.Diff.Data() {
		dx[i] += v
	}
}
