package dnn

import (
	"fmt"

	"repro/internal/kernels"
)

// SliceLayer splits its bottom along the channel axis into one top per
// output, the dual of ConcatLayer (Caffe's Slice layer) and the fan-out
// operation that hands disjoint channel ranges to independent branches.
type SliceLayer struct {
	baseLayer
	n, h, w  int
	points   []int // requested per-top channel counts; empty = even split
	channels []int
	offsets  []int // channel offset of each top in the bottom
	total    int

	fwd, bwd []desc // per top
	x        *Blob  // the pass's bottom and tops, read by the closures
	y        []*Blob
}

// NewSlice constructs a channel-axis slice layer. With no channel sizes
// given the bottom's channels split evenly over the tops; otherwise one
// size per top is required and they must sum to the bottom's channels.
func NewSlice(name string, channels ...int) *SliceLayer {
	return &SliceLayer{baseLayer: baseLayer{name: name, typ: "Slice"}, points: channels}
}

// Setup implements Layer.
func (l *SliceLayer) Setup(ctx *Context, bottom, top []*Blob) error {
	if len(bottom) != 1 || len(top) < 1 {
		return fmt.Errorf("slice %s: want 1 bottom and ≥1 tops", l.name)
	}
	b := bottom[0]
	l.n, l.h, l.w = b.Num(), b.Height(), b.Width()
	l.total = b.Channels()
	l.channels = l.channels[:0]
	if len(l.points) == 0 {
		if l.total%len(top) != 0 {
			return fmt.Errorf("slice %s: %d channels not divisible by %d tops", l.name, l.total, len(top))
		}
		for range top {
			l.channels = append(l.channels, l.total/len(top))
		}
	} else {
		if len(l.points) != len(top) {
			return fmt.Errorf("slice %s: %d channel sizes for %d tops", l.name, len(l.points), len(top))
		}
		sum := 0
		for _, c := range l.points {
			if c <= 0 {
				return fmt.Errorf("slice %s: non-positive channel size %d", l.name, c)
			}
			sum += c
		}
		if sum != l.total {
			return fmt.Errorf("slice %s: channel sizes sum to %d, bottom has %d", l.name, sum, l.total)
		}
		l.channels = append(l.channels, l.points...)
	}
	l.offsets = l.offsets[:0]
	l.fwd, l.bwd = make([]desc, len(top)), make([]desc, len(top))
	off := 0
	for ti, t := range top {
		t.Reshape(l.n, l.channels[ti], l.h, l.w)
		l.offsets = append(l.offsets, off)
		off += l.channels[ti]
		tag := fmt.Sprintf("%s/t%d", l.name, ti)
		l.fwd[ti] = desc{kernels.AxpyKernel("slice_copy", fwdKey(l.name), tag, t.Count()), func() { l.copyHost(ti) }}
		l.bwd[ti] = desc{kernels.AxpyKernel("slice_scatter", bwdKey(l.name), tag, t.Count()), func() { l.scatterHost(ti) }}
	}
	return nil
}

// Forward implements Layer: one copy kernel per top.
func (l *SliceLayer) Forward(ctx *Context, bottom, top []*Blob) error {
	l.x, l.y = bottom[0], top
	for ti := range top {
		if err := ctx.launch(&l.fwd[ti], ti); err != nil {
			return err
		}
	}
	return ctx.Barrier()
}

// copyHost copies top ti's channel range of the bottom.
func (l *SliceLayer) copyHost(ti int) {
	src, dst := l.x.Data.Data(), l.y[ti].Data.Data()
	hw, c, off := l.h*l.w, l.channels[ti], l.offsets[ti]
	for n := 0; n < l.n; n++ {
		copy(dst[n*c*hw:(n+1)*c*hw], src[(n*l.total+off)*hw:(n*l.total+off+c)*hw])
	}
}

// Backward implements Layer: scatters each top gradient into its channel
// range of the bottom gradient. With propagate[0] false the whole pass is
// dead work (concat's per-bottom skip, dualized) and no kernel launches.
// Each bottom element belongs to exactly one top, so the accumulation is
// add-once.
func (l *SliceLayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	if !propagate[0] {
		return nil
	}
	l.x, l.y = bottom[0], top
	for ti := range top {
		if err := ctx.launch(&l.bwd[ti], ti); err != nil {
			return err
		}
	}
	return ctx.Barrier()
}

// scatterHost accumulates top ti's gradient into its channel range of the
// bottom gradient.
func (l *SliceLayer) scatterHost(ti int) {
	dtop, dbot := l.y[ti].Diff.Data(), l.x.Diff.Data()
	hw, c, off := l.h*l.w, l.channels[ti], l.offsets[ti]
	for n := 0; n < l.n; n++ {
		from := dtop[n*c*hw : (n+1)*c*hw]
		to := dbot[(n*l.total+off)*hw : (n*l.total+off+c)*hw]
		for i, v := range from {
			to[i] += v
		}
	}
}
