package dnn

import (
	"math/rand"

	"repro/internal/tensor"
)

// Layer is the Caffe layer contract. Setup runs once with the bottom shapes
// known and must shape the top blobs and allocate parameters; Forward and
// Backward may be called repeatedly.
//
// Gradient convention: Backward ACCUMULATES (+=) into bottom diffs and
// parameter diffs; the Net zeroes all diffs at the start of each iteration.
// Accumulation is what makes fan-out (one blob consumed by several layers,
// as in the GoogLeNet inception slice) correct without explicit split
// layers.
type Layer interface {
	Name() string
	Type() string
	Setup(ctx *Context, bottom, top []*Blob) error
	Forward(ctx *Context, bottom, top []*Blob) error
	Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error
	// Params returns the layer's learnable blobs (possibly empty).
	Params() []*Blob
}

// LossLayer is implemented by layers that produce a scalar loss in top[0];
// the Net weighs their outputs into the global objective.
type LossLayer interface {
	Layer
	LossWeight() float32
}

// baseLayer holds the common name/type plumbing.
type baseLayer struct {
	name  string
	typ   string
	param []*Blob
}

func (b *baseLayer) Name() string    { return b.name }
func (b *baseLayer) Type() string    { return b.typ }
func (b *baseLayer) Params() []*Blob { return b.param }

// fillerRNG derives a deterministic per-layer RNG so parameter
// initialization does not depend on layer execution order elsewhere.
func fillerRNG(seed int64, layerName string) *rand.Rand {
	h := int64(1469598103934665603) // FNV-1a 64 offset basis
	for _, c := range layerName {
		h ^= int64(c)
		h *= 1099511628211
	}
	return rand.New(rand.NewSource(seed ^ h))
}

// fwdKey and bwdKey are a layer's launcher keys, "<layer>/fwd" and
// "<layer>/bwd": what the executor passes to Context.Begin, and what the
// layer's prebuilt descriptors resolve their key tags under.
func fwdKey(layer string) string { return layer + "/fwd" }

func bwdKey(layer string) string { return layer + "/bwd" }

// fillParam initializes a parameter blob with f — unless the building
// context is timing-only: its kernels' closures never run, so nothing reads
// the values, and the blob's pages stay untouched. Such a blob is marked
// unset until LoadWeights fills it, and a real-math pass or a weight save
// refuses it (see Blob.unset).
func fillParam(ctx *Context, b *Blob, f tensor.Filler, rng *rand.Rand) {
	if !ctx.Compute {
		b.unset = true
		return
	}
	f.Fill(b.Data, rng)
}

// unaryOps is the launch state of a layer with one bottom, one top and one
// kernel each way: the two prebuilt launch sites and the pass's blobs,
// which the sites' closures read.
type unaryOps struct {
	fwd, bwd desc
	x, y     *Blob
}

// forward launches the forward site over the pass's blobs and joins it.
func (u *unaryOps) forward(ctx *Context, bottom, top []*Blob) error {
	u.x, u.y = bottom[0], top[0]
	if err := ctx.launch(&u.fwd, 0); err != nil {
		return err
	}
	return ctx.Barrier()
}

// backward is forward for the backward site; nothing launches when the
// bottom takes no gradient.
func (u *unaryOps) backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	if !propagate[0] {
		return nil
	}
	u.x, u.y = bottom[0], top[0]
	if err := ctx.launch(&u.bwd, 0); err != nil {
		return err
	}
	return ctx.Barrier()
}
