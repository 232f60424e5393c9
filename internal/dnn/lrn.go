package dnn

import (
	"fmt"

	"repro/internal/kernels"
)

// LRNConfig parameterizes cross-channel local response normalization, with
// Caffe/AlexNet defaults.
type LRNConfig struct {
	LocalSize int     // window size across channels (odd)
	Alpha     float32 // scaling
	Beta      float32 // exponent
	K         float32 // bias
}

// DefaultLRN returns the AlexNet/CaffeNet LRN parameters.
func DefaultLRN() LRNConfig {
	return LRNConfig{LocalSize: 5, Alpha: 1e-4, Beta: 0.75, K: 1}
}

// LRNLayer implements cross-channel LRN:
//
//	scale_i = K + (alpha/n)·Σ_{j∈win(i)} x_j²,  y_i = x_i·scale_i^{-beta}.
//
// CaffeNet interleaves it with the early pooling layers.
type LRNLayer struct {
	baseLayer
	cfg LRNConfig

	n, c, h, w int
	scale      []float32 // cached scale_i for backward
	unaryOps
}

// NewLRN constructs an LRN layer.
func NewLRN(name string, cfg LRNConfig) *LRNLayer {
	if cfg.LocalSize <= 0 {
		cfg = DefaultLRN()
	}
	return &LRNLayer{baseLayer: baseLayer{name: name, typ: "LRN"}, cfg: cfg}
}

// Setup implements Layer.
func (l *LRNLayer) Setup(ctx *Context, bottom, top []*Blob) error {
	if len(bottom) != 1 || len(top) != 1 {
		return fmt.Errorf("lrn %s: want 1 bottom and 1 top", l.name)
	}
	if l.cfg.LocalSize%2 == 0 {
		return fmt.Errorf("lrn %s: local size must be odd", l.name)
	}
	b := bottom[0]
	l.n, l.c, l.h, l.w = b.Num(), b.Channels(), b.Height(), b.Width()
	top[0].Reshape(b.Shape()...)
	l.scale = make([]float32, b.Count())
	win := float64(l.cfg.LocalSize)
	l.fwd = desc{kernels.Elementwise("lrn_fwd", fwdKey(l.name), l.name, b.Count(), 4*(win+2), 4*win), l.forwardHost}
	l.bwd = desc{kernels.Elementwise("lrn_bwd", bwdKey(l.name), l.name, b.Count(), 4*(win+4), 6*win), l.backwardHost}
	return nil
}

// Forward implements Layer.
func (l *LRNLayer) Forward(ctx *Context, bottom, top []*Blob) error {
	return l.forward(ctx, bottom, top)
}

func (l *LRNLayer) forwardHost() {
	src, dst := l.x.Data.Data(), l.y.Data.Data()
	half := l.cfg.LocalSize / 2
	alphaOverN := l.cfg.Alpha / float32(l.cfg.LocalSize)
	hw := l.h * l.w
	for n := 0; n < l.n; n++ {
		base := n * l.c * hw
		for p := 0; p < hw; p++ {
			for c := 0; c < l.c; c++ {
				lo, hi := c-half, c+half
				if lo < 0 {
					lo = 0
				}
				if hi >= l.c {
					hi = l.c - 1
				}
				s := float32(0)
				for j := lo; j <= hi; j++ {
					v := src[base+j*hw+p]
					s += v * v
				}
				sc := l.cfg.K + alphaOverN*s
				i := base + c*hw + p
				l.scale[i] = sc
				dst[i] = src[i] * pow32(sc, -l.cfg.Beta)
			}
		}
	}
}

// Backward implements Layer, using the cached scale values:
//
//	dx_i += dy_i·scale_i^{-β} − (2αβ/n)·x_i·Σ_{j: i∈win(j)} dy_j·y_j/scale_j.
func (l *LRNLayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	return l.backward(ctx, top, propagate, bottom)
}

func (l *LRNLayer) backwardHost() {
	x, y := l.x.Data.Data(), l.y.Data.Data()
	dy, dx := l.y.Diff.Data(), l.x.Diff.Data()
	half := l.cfg.LocalSize / 2
	factor := 2 * l.cfg.Alpha * l.cfg.Beta / float32(l.cfg.LocalSize)
	hw := l.h * l.w
	for n := 0; n < l.n; n++ {
		base := n * l.c * hw
		for p := 0; p < hw; p++ {
			for c := 0; c < l.c; c++ {
				i := base + c*hw + p
				// direct term
				acc := dy[i] * pow32(l.scale[i], -l.cfg.Beta)
				// cross terms: channels j whose window contains c
				lo, hi := c-half, c+half
				if lo < 0 {
					lo = 0
				}
				if hi >= l.c {
					hi = l.c - 1
				}
				cross := float32(0)
				for j := lo; j <= hi; j++ {
					ij := base + j*hw + p
					cross += dy[ij] * y[ij] / l.scale[ij]
				}
				acc -= factor * x[i] * cross
				dx[i] += acc
			}
		}
	}
}
