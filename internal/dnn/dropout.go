package dnn

import (
	"fmt"
	"math/rand"

	"repro/internal/kernels"
)

// DropoutLayer implements inverted dropout: at train time each element is
// zeroed with probability Ratio and survivors are scaled by 1/(1−Ratio); at
// test time it is the identity. The mask is drawn from the context RNG, so
// runs are reproducible for a fixed seed.
type DropoutLayer struct {
	baseLayer
	ratio float32
	mask  []float32

	unaryOps
	phase Phase // the pass's context phase and RNG, read by the closures
	rng   *rand.Rand
}

// NewDropout constructs a dropout layer with the given drop ratio.
func NewDropout(name string, ratio float32) *DropoutLayer {
	return &DropoutLayer{baseLayer: baseLayer{name: name, typ: "Dropout"}, ratio: ratio}
}

// Setup implements Layer.
func (l *DropoutLayer) Setup(ctx *Context, bottom, top []*Blob) error {
	if len(bottom) != 1 || len(top) != 1 {
		return fmt.Errorf("dropout %s: want 1 bottom and 1 top", l.name)
	}
	if l.ratio < 0 || l.ratio >= 1 {
		return fmt.Errorf("dropout %s: ratio %v outside [0,1)", l.name, l.ratio)
	}
	top[0].Reshape(bottom[0].Shape()...)
	l.size(bottom[0].Count())
	return nil
}

// size sizes the mask and the descriptors for n elements.
func (l *DropoutLayer) size(n int) {
	l.mask = make([]float32, n)
	l.fwd = desc{kernels.Elementwise("dropout_fwd", fwdKey(l.name), l.name, n, 12, 2), l.forwardHost}
	l.bwd = desc{kernels.Elementwise("dropout_bwd", bwdKey(l.name), l.name, n, 12, 1), l.backwardHost}
}

// Forward implements Layer.
func (l *DropoutLayer) Forward(ctx *Context, bottom, top []*Blob) error {
	if n := bottom[0].Count(); len(l.mask) != n {
		// The bottom was reshaped after Setup (variable-batch serving);
		// Setup's mask length would index out of range.
		l.size(n)
	}
	l.phase, l.rng = ctx.Phase, ctx.RNG
	return l.forward(ctx, bottom, top)
}

func (l *DropoutLayer) forwardHost() {
	src, dst := l.x.Data.Data(), l.y.Data.Data()
	if l.phase != Train {
		copy(dst, src)
		return
	}
	scale := 1 / (1 - l.ratio)
	for i := range src {
		if l.rng.Float32() < l.ratio {
			l.mask[i] = 0
		} else {
			l.mask[i] = scale
		}
		dst[i] = src[i] * l.mask[i]
	}
}

// Backward implements Layer.
func (l *DropoutLayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	l.phase = ctx.Phase
	return l.backward(ctx, top, propagate, bottom)
}

func (l *DropoutLayer) backwardHost() {
	dtop, dbot := l.y.Diff.Data(), l.x.Diff.Data()
	if l.phase == Train {
		for i := range dtop {
			dbot[i] += dtop[i] * l.mask[i]
		}
	} else {
		for i := range dtop {
			dbot[i] += dtop[i]
		}
	}
}
