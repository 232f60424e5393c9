package models

import (
	"fmt"

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
	pf *data.Prefetcher
	in inputSpec
}

// Feed copies the next prefetched batch into net's input blobs, waiting
// for synthesis only when the pipeline has fallen behind.
func (p *InputPipe) Feed(net *dnn.Net) error {
	b := p.pf.Next()
	if b == nil {
		return fmt.Errorf("models: input pipe for %s is closed", net.Name())
	}
	err := p.in.deliver(net, b.Planes, b.Labels)
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
// workloads, from the same input description as NewFeeder: for equal
// (batch, seed) it delivers bit-for-bit that feeder's batch stream — same
// dataset seeds, same iterator RNG stream — so training with the pipe is
// convergence-invariant with training with the inline feeder. batch ≤ 0
// selects the paper default.
func NewInputPipe(name string, batch int, seed int64, opts PipeConfig) (*InputPipe, error) {
	w, err := Get(name)
	if err != nil {
		return nil, err
	}
	_, _, prefetch := w.open(w.batchOr(batch), seed)
	return &InputPipe{pf: prefetch(opts), in: w.input}, nil
}
