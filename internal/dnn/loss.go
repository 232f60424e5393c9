package dnn

import (
	"fmt"

	"repro/internal/kernels"
)

// lossOps is the launch state of a loss-style layer (several bottoms, one
// scalar top): its forward launch sites, one backward site per bottom, and
// the pass's blobs, which the sites' closures read.
type lossOps struct {
	fwd []desc
	bwd []desc // per bottom; nil entries never launch
	x   []*Blob
	y   *Blob
}

// forward launches every forward site over the pass's blobs and joins them.
func (o *lossOps) forward(ctx *Context, bottom, top []*Blob) error {
	o.x, o.y = bottom, top[0]
	for i := range o.fwd {
		if err := ctx.launch(&o.fwd[i], 0); err != nil {
			return err
		}
	}
	return ctx.Barrier()
}

// backward launches the backward site of every bottom that takes a
// gradient, bottom bi on chain bi, and joins them.
func (o *lossOps) backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	o.x, o.y = bottom, top[0]
	for bi := range o.bwd {
		if !propagate[bi] || o.bwd[bi].fn == nil {
			continue
		}
		if err := ctx.launch(&o.bwd[bi], bi); err != nil {
			return err
		}
	}
	return ctx.Barrier()
}

// SoftmaxLossLayer fuses softmax and multinomial logistic loss, like Caffe's
// SoftmaxWithLoss. Bottom 0 holds scores (N×C or N×C×1×1), bottom 1 holds
// labels as float32 class indices (N). Top 0 is the scalar loss.
type SoftmaxLossLayer struct {
	baseLayer
	weight float32
	prob   []float32
	n, c   int
	lossOps
}

// NewSoftmaxLoss constructs the layer with loss weight 1.
func NewSoftmaxLoss(name string) *SoftmaxLossLayer {
	return &SoftmaxLossLayer{baseLayer: baseLayer{name: name, typ: "SoftmaxWithLoss"}, weight: 1}
}

// LossWeight implements LossLayer.
func (l *SoftmaxLossLayer) LossWeight() float32 { return l.weight }

// Setup implements Layer. Forward is one softmax kernel and one
// loss-reduction kernel, both over the whole batch (loss layers are
// negligible and are not batch-split in Caffe either).
func (l *SoftmaxLossLayer) Setup(ctx *Context, bottom, top []*Blob) error {
	if len(bottom) != 2 || len(top) != 1 {
		return fmt.Errorf("softmaxloss %s: want 2 bottoms (scores, labels) and 1 top", l.name)
	}
	l.n = bottom[0].Num()
	l.c = bottom[0].SampleSize()
	if bottom[1].Num() != l.n {
		return fmt.Errorf("softmaxloss %s: label count %d != batch %d", l.name, bottom[1].Num(), l.n)
	}
	top[0].Reshape(1)
	l.prob = make([]float32, l.n*l.c)
	fk := fwdKey(l.name)
	l.fwd = []desc{
		{kernels.Elementwise("softmax_fwd", fk, l.name, l.n*l.c, 12, 6), l.softmaxHost},
		{kernels.Elementwise("softmax_loss_fwd", fk, l.name, l.n, 8, 4), l.lossHost},
	}
	l.bwd = []desc{{kernels.Elementwise("softmax_loss_bwd", bwdKey(l.name), l.name, l.n*l.c, 12, 2), l.backwardHost}, {}}
	return nil
}

// Forward implements Layer.
func (l *SoftmaxLossLayer) Forward(ctx *Context, bottom, top []*Blob) error {
	return l.forward(ctx, bottom, top)
}

func (l *SoftmaxLossLayer) softmaxHost() {
	scores := l.x[0].Data.Data()
	for i := 0; i < l.n; i++ {
		softmaxRow(scores[i*l.c:(i+1)*l.c], l.prob[i*l.c:(i+1)*l.c])
	}
}

func (l *SoftmaxLossLayer) lossHost() {
	labels := l.x[1].Data.Data()
	loss := float32(0)
	for i := 0; i < l.n; i++ {
		y := int(labels[i])
		if y < 0 || y >= l.c {
			continue
		}
		p := l.prob[i*l.c+y]
		if p < 1e-20 {
			p = 1e-20
		}
		loss -= log32(p)
	}
	l.y.Data.Data()[0] = loss / float32(l.n)
}

// Backward implements Layer: d score = (prob − onehot(label))·weight/N.
func (l *SoftmaxLossLayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	if !propagate[0] {
		return nil
	}
	return l.backward(ctx, top, propagate, bottom)
}

func (l *SoftmaxLossLayer) backwardHost() {
	labels, dscores := l.x[1].Data.Data(), l.x[0].Diff.Data()
	scale := l.weight / float32(l.n)
	for i := 0; i < l.n; i++ {
		y := int(labels[i])
		base := i * l.c
		for j := 0; j < l.c; j++ {
			g := l.prob[base+j]
			if j == y {
				g -= 1
			}
			dscores[base+j] += g * scale
		}
	}
}

// AccuracyLayer computes top-1 accuracy into its scalar top; it never
// propagates gradients (Caffe uses it in test nets).
type AccuracyLayer struct {
	baseLayer
	n, c int
	lossOps
}

// NewAccuracy constructs an accuracy layer.
func NewAccuracy(name string) *AccuracyLayer {
	return &AccuracyLayer{baseLayer: baseLayer{name: name, typ: "Accuracy"}}
}

// Setup implements Layer.
func (l *AccuracyLayer) Setup(ctx *Context, bottom, top []*Blob) error {
	if len(bottom) != 2 || len(top) != 1 {
		return fmt.Errorf("accuracy %s: want 2 bottoms and 1 top", l.name)
	}
	top[0].Reshape(1)
	l.n, l.c = bottom[0].Num(), bottom[0].SampleSize()
	l.fwd = []desc{{kernels.Elementwise("accuracy_fwd", fwdKey(l.name), l.name, l.n*l.c, 4, 1), l.forwardHost}}
	return nil
}

// Forward implements Layer.
func (l *AccuracyLayer) Forward(ctx *Context, bottom, top []*Blob) error {
	return l.forward(ctx, bottom, top)
}

func (l *AccuracyLayer) forwardHost() {
	scores, labels := l.x[0].Data.Data(), l.x[1].Data.Data()
	correct := 0
	for i := 0; i < l.n; i++ {
		row := scores[i*l.c : (i+1)*l.c]
		arg := 0
		for j, v := range row {
			if v > row[arg] {
				arg = j
			}
		}
		if arg == int(labels[i]) {
			correct++
		}
	}
	l.y.Data.Data()[0] = float32(correct) / float32(l.n)
}

// Backward implements Layer (no-op).
func (l *AccuracyLayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	return nil
}

// EuclideanLossLayer is ½N·Σ‖a−b‖², used in regression tests and examples.
type EuclideanLossLayer struct {
	baseLayer
	weight float32
	diff   []float32
	n      int
	lossOps
}

// NewEuclideanLoss constructs the layer with loss weight 1.
func NewEuclideanLoss(name string) *EuclideanLossLayer {
	return &EuclideanLossLayer{baseLayer: baseLayer{name: name, typ: "EuclideanLoss"}, weight: 1}
}

// LossWeight implements LossLayer.
func (l *EuclideanLossLayer) LossWeight() float32 { return l.weight }

// Setup implements Layer.
func (l *EuclideanLossLayer) Setup(ctx *Context, bottom, top []*Blob) error {
	if len(bottom) != 2 || len(top) != 1 {
		return fmt.Errorf("euclideanloss %s: want 2 bottoms and 1 top", l.name)
	}
	if bottom[0].Count() != bottom[1].Count() {
		return fmt.Errorf("euclideanloss %s: size mismatch %d vs %d", l.name, bottom[0].Count(), bottom[1].Count())
	}
	top[0].Reshape(1)
	count := bottom[0].Count()
	l.diff = make([]float32, count)
	l.n = bottom[0].Num()
	l.fwd = []desc{{kernels.Elementwise("euclidean_fwd", fwdKey(l.name), l.name, count, 12, 3), l.forwardHost}}
	l.bwd = make([]desc, 2)
	for bi := range l.bwd {
		sign := float32(1 - 2*bi) // +1 for a, −1 for b
		l.bwd[bi] = desc{kernels.Elementwise("euclidean_bwd", bwdKey(l.name), l.name, count, 12, 2), func() { l.backwardHost(bi, sign) }}
	}
	return nil
}

// Forward implements Layer.
func (l *EuclideanLossLayer) Forward(ctx *Context, bottom, top []*Blob) error {
	return l.forward(ctx, bottom, top)
}

func (l *EuclideanLossLayer) forwardHost() {
	a, b := l.x[0].Data.Data(), l.x[1].Data.Data()
	s := float32(0)
	for i := range a {
		d := a[i] - b[i]
		l.diff[i] = d
		s += d * d
	}
	l.y.Data.Data()[0] = s / float32(2*l.n)
}

// Backward implements Layer.
func (l *EuclideanLossLayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	return l.backward(ctx, top, propagate, bottom)
}

func (l *EuclideanLossLayer) backwardHost(bi int, sign float32) {
	scale := l.weight / float32(l.n)
	dst := l.x[bi].Diff.Data()
	for i := range dst {
		dst[i] += sign * scale * l.diff[i]
	}
}

// ContrastiveLossLayer is the Siamese-network loss of Hadsell et al., as in
// Caffe's mnist_siamese example: for feature pairs (a,b) with similarity
// label y ∈ {0,1},
//
//	L = 1/2N · Σ [ y·d² + (1−y)·max(0, margin−‖d‖)² ],  d = a−b.
type ContrastiveLossLayer struct {
	baseLayer
	weight float32
	margin float32
	diff   []float32 // a−b per pair
	dist   []float32 // ‖d‖ per pair
	n, dim int
	lossOps
}

// NewContrastiveLoss constructs the layer with the Caffe default margin 1.
func NewContrastiveLoss(name string, margin float32) *ContrastiveLossLayer {
	if margin <= 0 {
		margin = 1
	}
	return &ContrastiveLossLayer{
		baseLayer: baseLayer{name: name, typ: "ContrastiveLoss"},
		weight:    1, margin: margin,
	}
}

// LossWeight implements LossLayer.
func (l *ContrastiveLossLayer) LossWeight() float32 { return l.weight }

// Setup implements Layer.
func (l *ContrastiveLossLayer) Setup(ctx *Context, bottom, top []*Blob) error {
	if len(bottom) != 3 || len(top) != 1 {
		return fmt.Errorf("contrastiveloss %s: want 3 bottoms (feat1, feat2, sim) and 1 top", l.name)
	}
	if bottom[0].Count() != bottom[1].Count() {
		return fmt.Errorf("contrastiveloss %s: feature size mismatch", l.name)
	}
	l.n = bottom[0].Num()
	l.dim = bottom[0].SampleSize()
	top[0].Reshape(1)
	l.diff = make([]float32, l.n*l.dim)
	l.dist = make([]float32, l.n)
	l.fwd = []desc{{kernels.Elementwise("contrastive_fwd", fwdKey(l.name), l.name, l.n*l.dim, 12, 4), l.forwardHost}}
	l.bwd = make([]desc, 3) // the similarity labels take no gradient
	for bi := 0; bi < 2; bi++ {
		sign := float32(1 - 2*bi) // +1 for a, −1 for b
		l.bwd[bi] = desc{kernels.Elementwise("contrastive_bwd", bwdKey(l.name), l.name, l.n*l.dim, 12, 4), func() { l.backwardHost(bi, sign) }}
	}
	return nil
}

// Forward implements Layer.
func (l *ContrastiveLossLayer) Forward(ctx *Context, bottom, top []*Blob) error {
	return l.forward(ctx, bottom, top)
}

func (l *ContrastiveLossLayer) forwardHost() {
	a, b, sim := l.x[0].Data.Data(), l.x[1].Data.Data(), l.x[2].Data.Data()
	loss := float32(0)
	for i := 0; i < l.n; i++ {
		d2 := float32(0)
		for j := 0; j < l.dim; j++ {
			d := a[i*l.dim+j] - b[i*l.dim+j]
			l.diff[i*l.dim+j] = d
			d2 += d * d
		}
		l.dist[i] = sqrt32(d2)
		if sim[i] > 0.5 {
			loss += d2
		} else {
			m := max32(0, l.margin-l.dist[i])
			loss += m * m
		}
	}
	l.y.Data.Data()[0] = loss / float32(2*l.n)
}

// Backward implements Layer.
func (l *ContrastiveLossLayer) Backward(ctx *Context, top []*Blob, propagate []bool, bottom []*Blob) error {
	return l.backward(ctx, top, propagate, bottom)
}

func (l *ContrastiveLossLayer) backwardHost(bi int, sign float32) {
	sim, dst := l.x[2].Data.Data(), l.x[bi].Diff.Data()
	scale := l.weight / float32(l.n)
	for i := 0; i < l.n; i++ {
		if sim[i] > 0.5 {
			for j := 0; j < l.dim; j++ {
				dst[i*l.dim+j] += sign * scale * l.diff[i*l.dim+j]
			}
		} else {
			dist := l.dist[i]
			if dist >= l.margin {
				continue
			}
			// ∂/∂a max(0, m−‖d‖)² = −2(m−‖d‖)·d/‖d‖ (halved by the ½ in L)
			coef := -(l.margin - dist) / max32(dist, 1e-9)
			for j := 0; j < l.dim; j++ {
				dst[i*l.dim+j] += sign * scale * coef * l.diff[i*l.dim+j]
			}
		}
	}
}
