package dnn

import (
	"fmt"
	"math"

	"repro/internal/kernels"
)

// PoolMethod selects max or average pooling.
type PoolMethod int

// Pooling methods.
const (
	MaxPool PoolMethod = iota
	AvePool
)

// PoolConfig describes a pooling layer.
type PoolConfig struct {
	Method           PoolMethod
	KernelH, KernelW int
	StrideH, StrideW int
	PadH, PadW       int
}

// Pool builds a square pooling config.
func Pool(method PoolMethod, kernel, stride int) PoolConfig {
	return PoolConfig{Method: method, KernelH: kernel, KernelW: kernel, StrideH: stride, StrideW: stride}
}

// PoolLayer pools spatially. Like Caffe's GPU pooling it is one kernel over
// the whole batch (pooling is cheap and memory-bound, so Caffe never splits
// it; GLP4NN leaves such layers untouched).
type PoolLayer struct {
	baseLayer
	cfg PoolConfig

	n, c, h, w, oh, ow int
	mask               []int32 // argmax indices for MaxPool backward
	unaryOps
}

// NewPool constructs a pooling layer.
func NewPool(name string, cfg PoolConfig) *PoolLayer {
	return &PoolLayer{baseLayer: baseLayer{name: name, typ: "Pooling"}, cfg: cfg}
}

// Setup implements Layer. Caffe uses ceil division for pooled dims.
func (l *PoolLayer) Setup(ctx *Context, bottom, top []*Blob) error {
	if len(bottom) != 1 || len(top) != 1 {
		return fmt.Errorf("pool %s: want 1 bottom and 1 top", l.name)
	}
	b := bottom[0]
	l.n, l.c, l.h, l.w = b.Num(), b.Channels(), b.Height(), b.Width()
	l.oh = int(math.Ceil(float64(l.h+2*l.cfg.PadH-l.cfg.KernelH)/float64(l.cfg.StrideH))) + 1
	l.ow = int(math.Ceil(float64(l.w+2*l.cfg.PadW-l.cfg.KernelW)/float64(l.cfg.StrideW))) + 1
	if l.oh <= 0 || l.ow <= 0 {
		return fmt.Errorf("pool %s: empty output", l.name)
	}
	top[0].Reshape(l.n, l.c, l.oh, l.ow)
	if l.cfg.Method == MaxPool {
		l.mask = make([]int32, top[0].Count())
	}
	nOut := top[0].Count()
	window := float64(l.cfg.KernelH * l.cfg.KernelW)
	fwd, bwd := "maxpool_fwd", "maxpool_bwd"
	if l.cfg.Method == AvePool {
		fwd, bwd = "avepool_fwd", "avepool_bwd"
	}
	l.fwd = desc{kernels.Elementwise(fwd, fwdKey(l.name), l.name, nOut, 4*(window+1), window), l.forwardHost}
	l.bwd = desc{kernels.Elementwise(bwd, bwdKey(l.name), l.name, nOut, 4*(window+1), window), l.backwardHost}
	return nil
}

// Forward implements Layer.
func (l *PoolLayer) Forward(ctx *Context, bottom, top []*Blob) error {
	return l.forward(ctx, bottom, top)
}

// forwardHost pools plane by plane, each output row in runs of windows of
// one width: a clamped edge window is a run of one, and the windows whose
// columns lie wholly inside the plane — outputs [xa,xb), where no clamp can
// fire — are one run stepped by the stride. The method is tested per run.
// Elements are visited in row-major order within a window, as ever: max
// ties, masks and average sums keep their bits.
func (l *PoolLayer) forwardHost() {
	src, dst := l.x.Data.Data(), l.y.Data.Data()
	kh, kw, sh, sw, ph, pw := l.cfg.KernelH, l.cfg.KernelW, l.cfg.StrideH, l.cfg.StrideW, l.cfg.PadH, l.cfg.PadW
	h, w, oh, ow := l.h, l.w, l.oh, l.ow
	isMax, area := l.cfg.Method == MaxPool, float32(kh*kw) // Caffe averages over the full (padded) window
	xa, xb := (pw+sw-1)/sw, 0
	if w+pw >= kw {
		xb = min((w+pw-kw)/sw+1, ow)
	}
	for nc, idx := 0, 0; nc < l.n*l.c; nc++ {
		plane := src[nc*h*w : (nc+1)*h*w]
		for y := 0; y < oh; y++ {
			y0, y1 := max(y*sh-ph, 0), min(y*sh-ph+kh, h)
			for x, run := 0, 1; x < ow; x, idx = x+run, idx+run {
				x0, x1 := max(x*sw-pw, 0), min(x*sw-pw+kw, w)
				if run = 1; x == xa && xb > xa {
					run = xb - xa
				}
				if isMax {
					maxRun(plane, w, y0, y1, x0, x1-x0, sw, dst[idx:idx+run], l.mask[idx:idx+run])
				} else {
					aveRun(plane, w, y0, y1, x0, x1-x0, sw, area, dst[idx:idx+run])
				}
			}
		}
	}
}

// maxRun max-pools len(out) windows of rows [y0,y1) and kw columns of a
// w-wide plane, the first at column x0 and each next sw to its right.
func maxRun(plane []float32, w, y0, y1, x0, kw, sw int, out []float32, mask []int32) {
	for i := range out {
		// The running max is carried as bits, so that it and its index are
		// updated by conditional moves: a branch here mostly mispredicts.
		best, at := math.Float32bits(float32(math.Inf(-1))), int32(-1)
		for yy := y0; yy < y1; yy++ {
			for xx, v := range plane[yy*w+x0 : yy*w+x0+kw] {
				vb, vat := math.Float32bits(v), int32(yy*w+x0+xx)
				if v > math.Float32frombits(best) {
					best, at = vb, vat
				}
			}
		}
		out[i], mask[i] = math.Float32frombits(best), at
		x0 += sw
	}
}

// aveRun is maxRun for average pooling: window sums over area.
func aveRun(plane []float32, w, y0, y1, x0, kw, sw int, area float32, out []float32) {
	for i := range out {
		s := float32(0)
		for yy := y0; yy < y1; yy++ {
			for _, v := range plane[yy*w+x0 : yy*w+x0+kw] {
				s += v
			}
		}
		out[i] = s / area
		x0 += sw
	}
}

// Backward implements Layer.
func (l *PoolLayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	return l.backward(ctx, top, propagate, bottom)
}

func (l *PoolLayer) backwardHost() {
	dtop, dbot := l.y.Diff.Data(), l.x.Diff.Data()
	kh, kw := l.cfg.KernelH, l.cfg.KernelW
	sh, sw := l.cfg.StrideH, l.cfg.StrideW
	ph, pw := l.cfg.PadH, l.cfg.PadW
	idx := 0
	for nc := 0; nc < l.n*l.c; nc++ {
		plane := dbot[nc*l.h*l.w:]
		for y := 0; y < l.oh; y++ {
			for x := 0; x < l.ow; x++ {
				g := dtop[idx]
				if l.cfg.Method == MaxPool {
					if at := l.mask[idx]; at >= 0 {
						plane[at] += g
					}
				} else {
					share := g / float32(kh*kw)
					for yy := max(y*sh-ph, 0); yy < min(y*sh-ph+kh, l.h); yy++ {
						for xx := max(x*sw-pw, 0); xx < min(x*sw-pw+kw, l.w); xx++ {
							plane[yy*l.w+xx] += share
						}
					}
				}
				idx++
			}
		}
	}
}
