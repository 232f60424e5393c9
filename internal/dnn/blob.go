// Package dnn is a Caffe-like deep-learning framework: blobs, layers, nets
// and an SGD solver. It reproduces the substrate GLP4NN was integrated into:
// convolution is computed image-by-image as im2col + SGEMM (+ a K=1 "gemmk"
// for bias), exactly the kernel stream the paper's Fig. 3/Fig. 6 show, and
// every kernel is dispatched through a Launcher so the same network code
// runs serially (naive Caffe) or through GLP4NN's stream pool.
//
// All numerical work is real float32 host computation; the GPU device is
// simulated for timing only (see internal/simgpu). Each kernel is a
// descriptor built once by its layer and launched by reference; its host
// closure runs in Context.Dispatch right after the launch, in launch order,
// so results are deterministic for a fixed seed.
package dnn

import (
	"fmt"

	"repro/internal/tensor"
)

// Blob is Caffe's unit of data: a named tensor pair holding values (Data)
// and gradients (Diff). Parameter blobs additionally carry learning-rate and
// weight-decay multipliers (Caffe's param specs: biases typically use
// LrMult=2, DecayMult=0).
type Blob struct {
	Name string
	Data *tensor.Tensor
	Diff *tensor.Tensor

	LrMult    float32
	DecayMult float32

	// unset marks a parameter whose values were never filled or loaded: a
	// timing-only build skips the fillers (see fillParam), and LoadWeights
	// clears the mark. Real math on such a blob would silently train zeros.
	unset bool
}

// NewBlob allocates a zeroed blob.
func NewBlob(name string, shape ...int) *Blob {
	return &Blob{
		Name:      name,
		Data:      tensor.New(shape...),
		Diff:      tensor.New(shape...),
		LrMult:    1,
		DecayMult: 1,
	}
}

// Reshape resizes the blob, reallocating storage if the element count
// changes.
func (b *Blob) Reshape(shape ...int) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n == b.Data.Len() {
		b.Data.Reshape(shape...)
		b.Diff.Reshape(shape...)
		return
	}
	b.Data = tensor.New(shape...)
	b.Diff = tensor.New(shape...)
}

// Shape returns the blob's dimensions.
func (b *Blob) Shape() []int { return b.Data.Shape() }

// Count returns the total element count.
func (b *Blob) Count() int { return b.Data.Len() }

// Num returns dimension 0 (batch size) of a 4-D blob, 1 for lower ranks.
func (b *Blob) Num() int { return b.dimOr(0, 1) }

// Channels returns dimension 1, 1 for lower ranks.
func (b *Blob) Channels() int { return b.dimOr(1, 1) }

// Height returns dimension 2, 1 for lower ranks.
func (b *Blob) Height() int { return b.dimOr(2, 1) }

// Width returns dimension 3, 1 for lower ranks.
func (b *Blob) Width() int { return b.dimOr(3, 1) }

func (b *Blob) dimOr(i, def int) int {
	if i < b.Data.NumDims() {
		return b.Data.Dim(i)
	}
	return def
}

// SampleSize returns Count/Num: elements per batch sample.
func (b *Blob) SampleSize() int {
	n := b.Num()
	if n == 0 {
		return 0
	}
	return b.Count() / n
}

// SampleData returns the data slice for batch sample n.
func (b *Blob) SampleData(n int) []float32 {
	s := b.SampleSize()
	return b.Data.Data()[n*s : (n+1)*s]
}

// SampleDiff returns the gradient slice for batch sample n.
func (b *Blob) SampleDiff(n int) []float32 {
	s := b.SampleSize()
	return b.Diff.Data()[n*s : (n+1)*s]
}

// ZeroDiff clears the gradient.
func (b *Blob) ZeroDiff() { b.Diff.Zero() }

func (b *Blob) String() string {
	return fmt.Sprintf("blob %q %v", b.Name, b.Data.Shape())
}
