package models

import (
	"fmt"
	"math/rand"

	"repro/internal/data"
	"repro/internal/dnn"
)

// PipeConfig wires an asynchronous input pipeline: the pool bounding its
// fill concurrency and the observer of its hit/stall events.
type PipeConfig = data.Options

// InputPipe is a workload feeder running as an asynchronous pipeline:
// batch t+1 is synthesized on hostpool workers while batch t computes,
// and Feed delivers bit-for-bit the stream the synchronous NewFeeder
// would (the prefetch numeric contract, DESIGN §7.3). An InputPipe is
// single-consumer: Feed, Rollback and Close belong to the training loop's
// goroutine.
type InputPipe struct {
	pf   *data.Prefetcher
	feed func(net *dnn.Net, b *data.Batch) error
}

// Feed copies the next prefetched batch into net's input blobs, waiting
// for synthesis only when the pipeline has fallen behind.
func (p *InputPipe) Feed(net *dnn.Net) error {
	b := p.pf.Next()
	if b == nil {
		return fmt.Errorf("models: input pipe for %s is closed", net.Name())
	}
	err := p.feed(net, b)
	p.pf.Recycle(b)
	return err
}

// Feeder adapts the pipe to the synchronous Feeder type.
func (p *InputPipe) Feeder() Feeder { return p.Feed }

// Rollback discards batches synthesized ahead and re-queues their draw
// plans, so the post-rollback stream continues exactly where Feed last
// delivered — the hook parallel.Config.Prefetch invokes on
// checkpoint restore.
func (p *InputPipe) Rollback() { p.pf.Rollback() }

// Close stops the pipeline and its workers.
func (p *InputPipe) Close() { p.pf.Close() }

// Stats reports the pipeline's delivery counters.
func (p *InputPipe) Stats() data.PipelineStats { return p.pf.Stats() }

// NewInputPipe builds the asynchronous input pipeline for one of the four
// workloads. For equal (batch, seed) it delivers bit-for-bit the batch
// stream of NewFeeder — same dataset seeds, same iterator RNG stream —
// so training with the pipe is convergence-invariant with training with
// the inline feeder. batch ≤ 0 selects the paper default.
func NewInputPipe(name string, batch int, seed int64, opts PipeConfig) (*InputPipe, error) {
	dataLabelFeed := func(net *dnn.Net, b *data.Batch) error {
		if err := net.SetInputData("data", b.Planes[0]); err != nil {
			return err
		}
		return net.SetInputData("label", b.Labels)
	}
	switch name {
	case "CIFAR10":
		if batch <= 0 {
			batch = 100
		}
		spec, _ := data.SpecByName("CIFAR-10")
		ds := data.Synthetic(spec, seed)
		it := data.NewIterator(ds, data.TrainSplit, batch, seed+1)
		return &InputPipe{pf: data.NewPrefetcher(it, opts), feed: dataLabelFeed}, nil

	case "Siamese":
		if batch <= 0 {
			batch = 64
		}
		spec, _ := data.SpecByName("MNIST")
		ds := data.Synthetic(spec, seed)
		it := data.NewPairIterator(ds, data.TrainSplit, batch, seed+1)
		return &InputPipe{
			pf: data.NewPairPrefetcher(it, opts),
			feed: func(net *dnn.Net, b *data.Batch) error {
				if err := net.SetInputData("data", b.Planes[0]); err != nil {
					return err
				}
				if err := net.SetInputData("data_p", b.Planes[1]); err != nil {
					return err
				}
				return net.SetInputData("sim", b.Labels)
			},
		}, nil

	case "CaffeNet":
		if batch <= 0 {
			batch = 256
		}
		spec, _ := data.SpecByName("ImageNet")
		ds := data.Synthetic(spec, seed)
		it := data.NewCroppedIterator(ds, data.TrainSplit, batch, 227, 227, seed+1)
		return &InputPipe{pf: data.NewPrefetcher(it, opts), feed: dataLabelFeed}, nil

	case "GoogLeNet":
		if batch <= 0 {
			batch = 32
		}
		// The slice's input is an inception activation drawn from one shared
		// RNG with no per-sample decomposition, so it runs as a serial
		// source: generation still overlaps compute, draws stay in exact
		// feeder order.
		rng := rand.New(rand.NewSource(seed))
		gen := func(planes [][]float32, labels []float32) {
			buf := planes[0]
			for i := range buf {
				v := float32(rng.NormFloat64())
				if v < 0 {
					v = 0
				}
				buf[i] = v
			}
			for i := range labels {
				labels[i] = float32(rng.Intn(1000))
			}
		}
		return &InputPipe{
			pf:   data.NewSerialPrefetcher([]int{batch * 832 * 7 * 7}, batch, gen, opts),
			feed: dataLabelFeed,
		}, nil
	}
	return nil, fmt.Errorf("models: unknown workload %q (have %v)", name, Names)
}
