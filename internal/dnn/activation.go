package dnn

import (
	"fmt"

	"repro/internal/kernels"
)

// ReLULayer is the rectified linear unit, one elementwise kernel over the
// whole batch in both directions.
type ReLULayer struct {
	baseLayer

	// fusedInput (set by Net.EnableFusion, see fusion.go) marks this
	// layer's forward as fused into its producer's GEMM epilogue.
	fusedInput bool
	unaryOps
}

// NewReLU constructs a ReLU layer.
func NewReLU(name string) *ReLULayer {
	return &ReLULayer{baseLayer: baseLayer{name: name, typ: "ReLU"}}
}

// Setup implements Layer.
func (l *ReLULayer) Setup(ctx *Context, bottom, top []*Blob) error {
	if len(bottom) != 1 || len(top) != 1 {
		return fmt.Errorf("relu %s: want 1 bottom and 1 top", l.name)
	}
	top[0].Reshape(bottom[0].Shape()...)
	n := bottom[0].Count()
	l.fwd = desc{kernels.Elementwise("relu_fwd", fwdKey(l.name), l.name, n, 8, 1), l.forwardHost}
	l.bwd = desc{kernels.Elementwise("relu_bwd", bwdKey(l.name), l.name, n, 12, 1), l.backwardHost}
	return nil
}

// Forward implements Layer.
func (l *ReLULayer) Forward(ctx *Context, bottom, top []*Blob) error {
	if l.fusedInput {
		// The producer's fused GEMM epilogue already wrote this layer's top
		// (max(0, bottom)) while each output segment was cache hot, and the
		// producer's barrier retired those writes before its Forward
		// returned; serial order and the DAG's producer→consumer edge both
		// run this layer after the producer. The bottom blob still holds
		// the exact pre-activation values, so Backward is unchanged.
		return nil
	}
	return l.forward(ctx, bottom, top)
}

func (l *ReLULayer) forwardHost() {
	dst := l.y.Data.Data()
	for i, v := range l.x.Data.Data() {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// Backward implements Layer.
func (l *ReLULayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	return l.backward(ctx, top, propagate, bottom)
}

func (l *ReLULayer) backwardHost() {
	dtop, dbot := l.y.Diff.Data(), l.x.Diff.Data()
	for i, v := range l.x.Data.Data() {
		if v > 0 {
			dbot[i] += dtop[i]
		}
	}
}

// SigmoidLayer is the logistic activation (used by tests and available for
// LeNet-style nets).
type SigmoidLayer struct {
	baseLayer
	unaryOps
}

// NewSigmoid constructs a sigmoid layer.
func NewSigmoid(name string) *SigmoidLayer {
	return &SigmoidLayer{baseLayer: baseLayer{name: name, typ: "Sigmoid"}}
}

// Setup implements Layer.
func (l *SigmoidLayer) Setup(ctx *Context, bottom, top []*Blob) error {
	if len(bottom) != 1 || len(top) != 1 {
		return fmt.Errorf("sigmoid %s: want 1 bottom and 1 top", l.name)
	}
	top[0].Reshape(bottom[0].Shape()...)
	n := bottom[0].Count()
	l.fwd = desc{kernels.Elementwise("sigmoid_fwd", fwdKey(l.name), l.name, n, 8, 4), l.forwardHost}
	l.bwd = desc{kernels.Elementwise("sigmoid_bwd", bwdKey(l.name), l.name, n, 12, 3), l.backwardHost}
	return nil
}

// Forward implements Layer.
func (l *SigmoidLayer) Forward(ctx *Context, bottom, top []*Blob) error {
	return l.forward(ctx, bottom, top)
}

func (l *SigmoidLayer) forwardHost() {
	dst := l.y.Data.Data()
	for i, v := range l.x.Data.Data() {
		dst[i] = 1 / (1 + exp32(-v))
	}
}

// Backward implements Layer.
func (l *SigmoidLayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	return l.backward(ctx, top, propagate, bottom)
}

func (l *SigmoidLayer) backwardHost() {
	dtop, dbot := l.y.Diff.Data(), l.x.Diff.Data()
	for i, v := range l.y.Data.Data() {
		dbot[i] += dtop[i] * v * (1 - v)
	}
}
