package data

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/hostpool"
)

// This file is the asynchronous input pipeline: a bounded, ping-pong-
// buffered Prefetcher that synthesizes batch t+1 while batch t trains.
//
// Numeric contract (DESIGN §7.3): all randomness that decides *which*
// samples form a batch — the shuffle walk of Iterator, the pair draws of
// PairIterator, a serial generator's own RNG — executes on exactly one
// producer goroutine, in exactly the order the inline iterator would have
// consumed it. Only the per-sample pixel fills fan out across hostpool
// workers, and those are pure functions of (dataset, split, index), so the
// delivered batch stream is bit-identical to the serial one. On rollback
// the pipeline discards every synthesized-but-undelivered batch and
// re-queues its recorded draw plan, so the post-rollback stream continues
// exactly where the consumer last read.

// Batch is one prefetched mini-batch. Planes holds the filled input
// planes in source order (Iterator: data; PairIterator: left, right;
// serial sources: as constructed) and Labels the per-sample label or
// similarity vector. Buffers are owned by the Prefetcher and recycled:
// a consumer must copy what it needs and call Recycle before the next
// call to Next.
type Batch struct {
	Planes [][]float32
	Labels []float32

	// The recorded draw plan (one of the two, by source kind): what
	// Rollback re-queues so a discarded batch is re-synthesized with
	// identical bits.
	idx   []int
	pairs []pairDraw
}

// PipelineStats counts a Prefetcher's delivery outcomes.
type PipelineStats struct {
	Hits      int64         // batches that were ready the moment the consumer asked
	Stalls    int64         // Next calls that had to wait on synthesis
	StallTime time.Duration // total wall time Next spent waiting
}

func (s PipelineStats) String() string {
	return fmt.Sprintf("hits=%d stalls=%d stall-time=%v", s.Hits, s.Stalls, s.StallTime.Round(time.Microsecond))
}

// Observer receives pipeline events as they happen. *core.Ledger implements
// it, so prefetch behavior lands in the runtime's overhead ledger next to
// the paper's cost counters. Implementations must be safe for concurrent
// use and should not block.
type Observer interface {
	PrefetchHit()
	PrefetchStall(wait time.Duration)
}

// ringDepth is the number of in-flight batch buffers: the ping-pong pair,
// one computing while the other fills.
const ringDepth = 2

// Options wires a Prefetcher. The zero value is ready to use.
type Options struct {
	// Pool bounds fill concurrency; nil selects hostpool.Default(). Fill
	// workers take one pool slot per sample filled, so prefetch synthesis
	// and kernel host math share one machine-wide concurrency budget. One
	// persistent fill worker runs per pool worker, up to the per-batch
	// fill count.
	Pool *hostpool.Pool
	// Observer, when non-nil, is notified of every hit and stall.
	Observer Observer
}

// source is the serial half of a pipeline: it draws batch plans on the
// producer goroutine and exposes the pure per-sample fills.
type source interface {
	// newBatch allocates a batch with this source's buffer shapes.
	newBatch() *Batch
	// draw advances the serial selection state by one batch, recording the
	// plan in b (or, for serial sources, synthesizing outright). Called
	// only from the single producer goroutine; must consume the underlying
	// RNG exactly as the inline iterator would.
	draw(b *Batch)
	// retract pushes b's recorded plan to the *front* of the replay queue.
	// Rollback calls it on undelivered batches in reverse draw order, so
	// the queue ends up in draw order.
	retract(b *Batch)
	// fills returns the per-batch count of parallel fill tasks (0 = draw
	// synthesizes everything serially).
	fills() int
	// fill executes fill task i of b on the given worker. Must be pure:
	// a function of the plan only, touching a disjoint slice of b.
	fill(b *Batch, i, worker int)
	// prepare sizes per-worker state (samplers) once worker count is known.
	prepare(workers int)
}

// Prefetcher runs a source ahead of a consumer through a fixed ring of
// reusable batch buffers. Next, Recycle, Rollback and Close must be called
// from one consumer goroutine (the training loop); Stats is safe anywhere.
// In steady state the ping-pong path allocates nothing: buffers, plans,
// samplers and worker goroutines are all created up front and recycled.
type Prefetcher struct {
	src     source
	pool    *hostpool.Pool
	obs     Observer
	workers int
	nfills  int

	free  chan *Batch   // recycled buffers awaiting a draw
	ready chan *Batch   // synthesized batches awaiting the consumer
	start []chan *Batch // fan-out: worker w's private feed, so every worker handles its stride
	done  chan struct{}

	stop   chan struct{} // closed to halt the producer
	joined chan struct{} // closed by the producer on exit
	term   chan struct{} // closed by Close: unblocks consumers forever
	closed atomic.Bool

	// inflight is the batch the producer held when halted: drawn (its plan
	// is consumed) but not yet enqueued on ready. Written by the producer
	// goroutine; read by Rollback/Close only after joining it.
	inflight *Batch

	hits    atomic.Int64
	stalls  atomic.Int64
	stallNs atomic.Int64
}

// NewPrefetcher wraps a (possibly cropped) batch iterator. The iterator
// must not be used directly afterwards: the pipeline owns its RNG stream.
func NewPrefetcher(it *Iterator, opts Options) *Prefetcher {
	size := it.ds.Channels * it.h * it.w
	return newPrefetcher(&iterSource{it: it, size: size}, opts)
}

// NewPairPrefetcher wraps a Siamese pair iterator. The iterator must not
// be used directly afterwards.
func NewPairPrefetcher(p *PairIterator, opts Options) *Prefetcher {
	return newPrefetcher(&pairSource{it: p}, opts)
}

// NewSerialPrefetcher wraps a serial batch generator that owns its whole
// RNG stream (no per-sample decomposition — e.g. the GoogLeNet feeder's
// raw Gaussian batches). gen runs on the single producer goroutine, so its
// draw order is exactly the inline order; the pipeline still overlaps
// generation with compute and double-buffers the result. planeSizes and
// labels give the buffer shapes gen is called with.
func NewSerialPrefetcher(planeSizes []int, labels int, gen func(planes [][]float32, labels []float32), opts Options) *Prefetcher {
	if gen == nil {
		panic("data: NewSerialPrefetcher needs a generator")
	}
	return newPrefetcher(&funcSource{sizes: planeSizes, labels: labels, gen: gen}, opts)
}

func newPrefetcher(src source, opts Options) *Prefetcher {
	pool := opts.Pool
	if pool == nil {
		pool = hostpool.Default()
	}
	nfills := src.fills()
	workers := pool.Workers()
	if workers > nfills {
		workers = nfills
	}
	src.prepare(workers)
	p := &Prefetcher{
		src:     src,
		pool:    pool,
		obs:     opts.Observer,
		workers: workers,
		nfills:  nfills,
		free:    make(chan *Batch, ringDepth),
		ready:   make(chan *Batch, ringDepth),
		start:   make([]chan *Batch, workers),
		done:    make(chan struct{}, workers),
		term:    make(chan struct{}),
	}
	for w := range p.start {
		p.start[w] = make(chan *Batch, 1)
	}
	for i := 0; i < ringDepth; i++ {
		p.free <- src.newBatch()
	}
	for w := 0; w < workers; w++ {
		go p.fillWorker(w)
	}
	p.launch()
	return p
}

func (p *Prefetcher) launch() {
	p.stop = make(chan struct{})
	p.joined = make(chan struct{})
	go p.produce()
}

// produce is the single producer goroutine: draw serially, fan the fills
// out, hand the finished batch over. It owns every RNG draw.
func (p *Prefetcher) produce() {
	defer close(p.joined)
	for {
		var b *Batch
		select {
		case <-p.stop:
			return
		case b = <-p.free:
		}
		p.inflight = b
		p.src.draw(b)
		for w := 0; w < p.workers; w++ {
			p.start[w] <- b
		}
		for w := 0; w < p.workers; w++ {
			<-p.done
		}
		select {
		case p.ready <- b:
			p.inflight = nil
		case <-p.stop:
			return
		}
	}
}

// fillWorker is one persistent fill goroutine: it handles a fixed stride of
// each batch's fill tasks, taking a pool slot per sample so synthesis
// shares the host-concurrency budget with kernel math.
func (p *Prefetcher) fillWorker(w int) {
	for b := range p.start[w] {
		for i := w; i < p.nfills; i += p.workers {
			p.pool.Acquire()
			p.src.fill(b, i, w)
			p.pool.Release()
		}
		p.done <- struct{}{}
	}
}

// Next returns the next batch of the stream, waiting for synthesis only
// when the pipeline has fallen behind. The returned buffers are loaned:
// copy out and Recycle. After Close, Next drains any batches that were
// already synthesized and then returns nil instead of blocking forever.
func (p *Prefetcher) Next() *Batch {
	select {
	case b := <-p.ready:
		p.hits.Add(1)
		if p.obs != nil {
			p.obs.PrefetchHit()
		}
		return b
	default:
	}
	t0 := time.Now()
	var b *Batch
	select {
	case b = <-p.ready:
	case <-p.term:
		// Closed while we waited (or before): the producer will never
		// enqueue again, but a batch may have landed before the race
		// resolved — take it if so, otherwise report end-of-stream.
		select {
		case b = <-p.ready:
		default:
			return nil
		}
	}
	wait := time.Since(t0)
	p.stalls.Add(1)
	p.stallNs.Add(int64(wait))
	if p.obs != nil {
		p.obs.PrefetchStall(wait)
	}
	return b
}

// Recycle returns a batch obtained from Next to the buffer ring.
func (p *Prefetcher) Recycle(b *Batch) {
	if b != nil {
		p.free <- b
	}
}

// Rollback discards every synthesized-but-undelivered batch and re-queues
// the recorded draw plans, in draw order, ahead of fresh draws — the
// checkpoint-restore hook. After a trainer restores to a checkpoint taken
// at delivery point t, the next batches out of Next are bit-for-bit the
// batches that followed t the first time, even though the pipeline had
// already run ahead. Every batch handed out by Next must be recycled
// before calling Rollback.
func (p *Prefetcher) Rollback() {
	if p.closed.Load() {
		return
	}
	p.halt()
	// Undelivered batches in draw order: ready is FIFO and the in-flight
	// batch (drawn, never enqueued) is necessarily the newest.
	var und []*Batch
	for {
		select {
		case b := <-p.ready:
			und = append(und, b)
			continue
		default:
		}
		break
	}
	if p.inflight != nil {
		und = append(und, p.inflight)
		p.inflight = nil
	}
	// retract prepends, so walking newest→oldest leaves the replay queue
	// oldest-first — the exact redelivery order.
	for i := len(und) - 1; i >= 0; i-- {
		p.src.retract(und[i])
		p.free <- und[i]
	}
	p.launch()
}

// Close stops the pipeline and its workers. Idempotent and safe to call
// from any goroutine, including concurrently with itself and with a
// consumer parked in Next: later Closes are no-ops, and a parked Next
// unblocks with the already-synthesized tail of the stream, then nil.
// Buffers handed out by Next stay valid.
func (p *Prefetcher) Close() {
	if !p.closed.CompareAndSwap(false, true) {
		return
	}
	p.halt()
	for _, c := range p.start {
		close(c)
	}
	close(p.term)
}

// halt stops the producer and joins it. The producer never parks between
// fan-out and fan-in, so at halt time every fill worker is idle.
func (p *Prefetcher) halt() {
	close(p.stop)
	<-p.joined
}

// Stats returns delivery counters. Safe to call from any goroutine.
func (p *Prefetcher) Stats() PipelineStats {
	return PipelineStats{
		Hits:      p.hits.Load(),
		Stalls:    p.stalls.Load(),
		StallTime: time.Duration(p.stallNs.Load()),
	}
}

// iterSource adapts Iterator: the plan is the drawn sample indices.
type iterSource struct {
	it       *Iterator
	size     int // elements per sample at (h, w)
	samplers []*Sampler
	replay   [][]int
}

func (s *iterSource) newBatch() *Batch {
	return &Batch{
		Planes: [][]float32{make([]float32, s.it.batch*s.size)},
		Labels: make([]float32, s.it.batch),
		idx:    make([]int, s.it.batch),
	}
}

func (s *iterSource) draw(b *Batch) {
	if len(s.replay) > 0 {
		copy(b.idx, s.replay[0])
		s.replay = s.replay[1:]
		return
	}
	s.it.drawInto(b.idx)
}

func (s *iterSource) retract(b *Batch) {
	plan := make([]int, len(b.idx))
	copy(plan, b.idx)
	s.replay = append([][]int{plan}, s.replay...)
}

func (s *iterSource) fills() int { return s.it.batch }

func (s *iterSource) fill(b *Batch, i, worker int) {
	label := s.samplers[worker].Sample(s.it.split, b.idx[i], b.Planes[0][i*s.size:(i+1)*s.size], s.it.h, s.it.w)
	b.Labels[i] = float32(label)
}

func (s *iterSource) prepare(workers int) {
	s.samplers = make([]*Sampler, workers)
	for i := range s.samplers {
		s.samplers[i] = s.it.ds.NewSampler()
	}
}

// pairSource adapts PairIterator: the plan is the drawn (A, B, Sim)
// tuples; each pair contributes two fill tasks (left and right image).
type pairSource struct {
	it       *PairIterator
	samplers []*Sampler
	replay   [][]pairDraw
}

func (s *pairSource) newBatch() *Batch {
	size := s.it.ds.SampleSize()
	return &Batch{
		Planes: [][]float32{
			make([]float32, s.it.batch*size),
			make([]float32, s.it.batch*size),
		},
		Labels: make([]float32, s.it.batch),
		pairs:  make([]pairDraw, s.it.batch),
	}
}

func (s *pairSource) draw(b *Batch) {
	if len(s.replay) > 0 {
		copy(b.pairs, s.replay[0])
		s.replay = s.replay[1:]
	} else {
		s.it.drawInto(b.pairs)
	}
	for i, d := range b.pairs {
		b.Labels[i] = d.Sim
	}
}

func (s *pairSource) retract(b *Batch) {
	plan := make([]pairDraw, len(b.pairs))
	copy(plan, b.pairs)
	s.replay = append([][]pairDraw{plan}, s.replay...)
}

func (s *pairSource) fills() int { return 2 * s.it.batch }

func (s *pairSource) fill(b *Batch, i, worker int) {
	ds := s.it.ds
	size := ds.SampleSize()
	pair := b.pairs[i/2]
	index, plane := pair.A, b.Planes[0]
	if i%2 == 1 {
		index, plane = pair.B, b.Planes[1]
	}
	s.samplers[worker].Sample(s.it.split, index, plane[(i/2)*size:(i/2+1)*size], ds.Height, ds.Width)
}

func (s *pairSource) prepare(workers int) {
	s.samplers = make([]*Sampler, workers)
	for i := range s.samplers {
		s.samplers[i] = s.it.ds.NewSampler()
	}
}

// funcSource adapts a serial generator: draw runs gen inline (the
// generator's RNG stream is the plan), so there are no parallel fills —
// the pipeline still overlaps generation with compute. retract stashes the
// generated content itself for redelivery.
type funcSource struct {
	sizes  []int
	labels int
	gen    func(planes [][]float32, labels []float32)
	replay []*Batch
}

func (s *funcSource) newBatch() *Batch {
	b := &Batch{
		Planes: make([][]float32, len(s.sizes)),
		Labels: make([]float32, s.labels),
	}
	for i, n := range s.sizes {
		b.Planes[i] = make([]float32, n)
	}
	return b
}

func (s *funcSource) draw(b *Batch) {
	if len(s.replay) > 0 {
		st := s.replay[0]
		s.replay = s.replay[1:]
		for i := range b.Planes {
			copy(b.Planes[i], st.Planes[i])
		}
		copy(b.Labels, st.Labels)
		return
	}
	s.gen(b.Planes, b.Labels)
}

func (s *funcSource) retract(b *Batch) {
	st := s.newBatch()
	for i := range b.Planes {
		copy(st.Planes[i], b.Planes[i])
	}
	copy(st.Labels, b.Labels)
	s.replay = append([]*Batch{st}, s.replay...)
}

func (s *funcSource) fills() int { return 0 }

func (s *funcSource) fill(*Batch, int, int) {}

func (s *funcSource) prepare(int) {}
