package dnn

import (
	"fmt"

	"repro/internal/kernels"
)

// ConcatLayer concatenates its bottoms along the channel axis, the fan-in
// operation of GoogLeNet's inception modules. All bottoms must agree on
// batch and spatial dimensions.
type ConcatLayer struct {
	baseLayer
	n, h, w  int
	channels []int
	offsets  []int // channel offset of each bottom in the top
	total    int

	fwd, bwd []desc  // per bottom
	x        []*Blob // the pass's bottoms and top, read by the closures
	y        *Blob
}

// NewConcat constructs a channel-axis concat layer.
func NewConcat(name string) *ConcatLayer {
	return &ConcatLayer{baseLayer: baseLayer{name: name, typ: "Concat"}}
}

// Setup implements Layer.
func (l *ConcatLayer) Setup(ctx *Context, bottom, top []*Blob) error {
	if len(bottom) < 1 || len(top) != 1 {
		return fmt.Errorf("concat %s: want ≥1 bottoms and 1 top", l.name)
	}
	b0 := bottom[0]
	l.n, l.h, l.w = b0.Num(), b0.Height(), b0.Width()
	l.channels = l.channels[:0]
	l.offsets = l.offsets[:0]
	l.total = 0
	for _, b := range bottom {
		if b.Num() != l.n || b.Height() != l.h || b.Width() != l.w {
			return fmt.Errorf("concat %s: bottom %q shape %v incompatible with %v",
				l.name, b.Name, b.Shape(), b0.Shape())
		}
		l.channels = append(l.channels, b.Channels())
		l.offsets = append(l.offsets, l.total)
		l.total += b.Channels()
	}
	top[0].Reshape(l.n, l.total, l.h, l.w)
	l.fwd, l.bwd = make([]desc, len(bottom)), make([]desc, len(bottom))
	for bi, b := range bottom {
		tag := fmt.Sprintf("%s/b%d", l.name, bi)
		l.fwd[bi] = desc{kernels.AxpyKernel("concat_copy", fwdKey(l.name), tag, b.Count()), func() { l.copyHost(bi) }}
		l.bwd[bi] = desc{kernels.AxpyKernel("concat_slice", bwdKey(l.name), tag, b.Count()), func() { l.sliceHost(bi) }}
	}
	return nil
}

// Forward implements Layer: one copy kernel per bottom.
func (l *ConcatLayer) Forward(ctx *Context, bottom, top []*Blob) error {
	l.x, l.y = bottom, top[0]
	for bi := range bottom {
		if err := ctx.launch(&l.fwd[bi], bi); err != nil {
			return err
		}
	}
	return ctx.Barrier()
}

// copyHost copies bottom bi into its channel range of the top.
func (l *ConcatLayer) copyHost(bi int) {
	src, dst := l.x[bi].Data.Data(), l.y.Data.Data()
	hw, c, off := l.h*l.w, l.channels[bi], l.offsets[bi]
	for n := 0; n < l.n; n++ {
		copy(dst[(n*l.total+off)*hw:(n*l.total+off+c)*hw], src[n*c*hw:(n+1)*c*hw])
	}
}

// Backward implements Layer: slices the top gradient back per bottom.
func (l *ConcatLayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	l.x, l.y = bottom, top[0]
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

// sliceHost accumulates bottom bi's channel range of the top gradient.
func (l *ConcatLayer) sliceHost(bi int) {
	dtop, dbot := l.y.Diff.Data(), l.x[bi].Diff.Data()
	hw, c, off := l.h*l.w, l.channels[bi], l.offsets[bi]
	for n := 0; n < l.n; n++ {
		from := dtop[(n*l.total+off)*hw : (n*l.total+off+c)*hw]
		to := dbot[n*c*hw : (n+1)*c*hw]
		for i, v := range from {
			to[i] += v
		}
	}
}
