// Package serve is the inference-serving layer over a frozen net: a
// dynamic request batcher in front of dnn.FrozenNet. Concurrent clients
// submit single samples; the batcher coalesces them into device batches
// and flushes when the batch fills or a latency deadline expires, stages
// the batch through the launcher's copy stream, runs the frozen forward,
// and fans the per-request rows back to their callers.
//
// The bit-identity contract carries over to serving: every forward layer
// is per-sample independent, so a request's answer does not depend on
// which requests it was co-batched with, how full the batch was (unused
// rows are zero-padded, never read back), or whether a transient device
// fault forced the batcher to retry the batch. A request answered by a
// half-full deadline flush is bitwise the request answered by a full
// batch — dynamic batching changes throughput and latency, never answers.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
)

// ErrClosed is returned by Predict once the server is shut down.
var ErrClosed = errors.New("serve: server closed")

// ErrOverloaded is returned by PredictContext when the admission queue is
// full: the request is shed immediately instead of queuing unboundedly, so
// an overloaded server stays responsive and callers can back off.
var ErrOverloaded = errors.New("serve: overloaded: admission queue full")

// Observer receives serving events as they happen; *core.Ledger implements
// it, so serving behavior lands in the runtime's overhead ledger.
// Implementations must be safe for concurrent use.
type Observer interface {
	// ServeRequest reports one answered request and its enqueue→answer
	// latency (queueing + compute).
	ServeRequest(lat time.Duration)
	// ServeBatch reports one flushed device batch: how many requests it
	// coalesced and its flush→done latency.
	ServeBatch(size int, lat time.Duration)
}

// batchRetries bounds whole-batch retries on transient device faults
// (core.IsTransient). The batch retries with its requests in place, so a
// fault drops nothing and reorders nothing.
const batchRetries = 3

// Config tunes a Server. The zero value serves with the frozen net's full
// device batch and a 2 ms flush deadline. The admission queue holds four
// device batches (4 × MaxBatch requests).
type Config struct {
	// MaxBatch caps how many requests coalesce into one device batch;
	// ≤ 0 or > the frozen batch selects the frozen batch. 1 is the
	// batch=1 serial baseline.
	MaxBatch int
	// MaxDelay is the flush deadline measured from the oldest pending
	// request: a partial batch flushes when it expires. 0 selects the 2 ms
	// default; < 0 flushes greedily (whatever is queued the moment the
	// batcher is free — the lowest-latency, lowest-coalescing policy).
	MaxDelay time.Duration
	// Observer, when non-nil, receives per-request and per-batch events
	// (wire the runtime's *core.Ledger here).
	Observer Observer
	// Budget, when non-nil, charges each flushed batch one unit of the
	// unified SM budget for the duration of its attempts — the same pool
	// the batch's own chain streams, DAG wavefront, and copy stream draw
	// from (wire the runtime's core.Budget here when the server shares a
	// device with other work).
	Budget *core.Budget
	// Adapter, when non-nil, is notified after every flushed batch — the
	// serving equivalent of a training step boundary. Wire the runtime's
	// adaptive controller here: forward execution is width-invariant (the
	// gradient-partial folds that pin widths are backward-only), so a
	// serving plan swap is always bit-safe and needs no checkpoint.
	Adapter BatchBoundary
}

// BatchBoundary is notified after each flushed device batch.
type BatchBoundary interface {
	BatchBoundary()
}

// Stats is a snapshot of a server's counters. Quantiles are nearest-rank
// over a sliding window of recent observations.
type Stats struct {
	Requests int64 // requests answered successfully
	Batches  int64 // device batches flushed
	Samples  int64 // sum of batch occupancies (Samples/Batches = mean coalescing)
	Retries  int64 // transient whole-batch retries absorbed
	Failures int64 // requests answered with an error (including canceled)
	Shed     int64 // requests rejected at admission (queue full)

	ReqP50, ReqP99     time.Duration // enqueue→answer
	BatchP50, BatchP99 time.Duration // flush→done
}

func (s Stats) String() string {
	mean := 0.0
	if s.Batches > 0 {
		mean = float64(s.Samples) / float64(s.Batches)
	}
	return fmt.Sprintf("requests=%d batches=%d mean-batch=%.2f retries=%d failures=%d shed=%d | req p50=%v p99=%v | batch p50=%v p99=%v",
		s.Requests, s.Batches, mean, s.Retries, s.Failures, s.Shed,
		s.ReqP50.Round(time.Microsecond), s.ReqP99.Round(time.Microsecond),
		s.BatchP50.Round(time.Microsecond), s.BatchP99.Round(time.Microsecond))
}

type response struct {
	outputs [][]float32
	err     error
}

type request struct {
	samples [][]float32 // one row per frozen input, in Inputs() order
	resp    chan response
	enq     time.Time
	// ctx, when non-nil, lets the batcher shed the request at flush time if
	// its caller has already gone away (PredictContext only).
	ctx context.Context
}

// Server owns a frozen net and its execution context on a single batcher
// goroutine (the frozen plan has one set of activation blobs, so batches
// serialize; concurrency lives inside a batch via the DAG wavefront and
// the stream pool). Predict is safe for any number of concurrent callers.
type Server struct {
	fz  *dnn.FrozenNet
	ctx *dnn.Context
	cfg Config

	inNames  []string
	outNames []string
	inRow    []int // per-input row length (elements per sample)
	outRow   []int
	batch    int // device batch rows

	in   chan *request
	quit chan struct{}
	done chan struct{}
	once sync.Once

	mu       sync.Mutex
	requests int64
	batches  int64
	samples  int64
	retries  int64
	failures int64
	shed     int64
	reqLat   *core.LatencyWindow
	batchLat *core.LatencyWindow
}

// New starts a server over a frozen net. The frozen net and context belong
// to the server until Close: no other goroutine may run the plan.
func New(fz *dnn.FrozenNet, ctx *dnn.Context, cfg Config) (*Server, error) {
	batch := fz.Batch()
	if batch < 1 {
		return nil, fmt.Errorf("serve: frozen net %s has no input batch", fz.Name())
	}
	if cfg.MaxBatch <= 0 || cfg.MaxBatch > batch {
		cfg.MaxBatch = batch
	}
	if cfg.MaxDelay == 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	s := &Server{
		fz:       fz,
		ctx:      ctx,
		cfg:      cfg,
		inNames:  fz.Inputs(),
		outNames: fz.Outputs(),
		batch:    batch,
		in:       make(chan *request, 4*cfg.MaxBatch),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
		reqLat:   core.NewLatencyWindow(0),
		batchLat: core.NewLatencyWindow(0),
	}
	if len(s.inNames) == 0 || len(s.outNames) == 0 {
		return nil, fmt.Errorf("serve: frozen net %s has %d inputs and %d outputs; need at least one of each",
			fz.Name(), len(s.inNames), len(s.outNames))
	}
	for _, name := range s.inNames {
		s.inRow = append(s.inRow, s.fz.Blob(name).Count()/batch)
	}
	for _, name := range s.outNames {
		s.outRow = append(s.outRow, s.fz.Blob(name).Count()/batch)
	}
	go s.run()
	return s, nil
}

// Inputs returns the per-request sample layout: one row per name, in the
// order Predict expects, with RowSizes giving each row's element count.
func (s *Server) Inputs() []string { return append([]string(nil), s.inNames...) }

// Outputs returns the names of the rows each Predict answer carries.
func (s *Server) Outputs() []string { return append([]string(nil), s.outNames...) }

// RowSizes returns the per-input element counts one request's samples must
// have, parallel to Inputs().
func (s *Server) RowSizes() []int { return append([]int(nil), s.inRow...) }

// MaxBatch returns the effective coalescing cap after Config normalization
// (clamped to the frozen engine's device batch).
func (s *Server) MaxBatch() int { return s.cfg.MaxBatch }

// Predict submits one sample (one row per frozen input, in Inputs()
// order) and blocks until the batcher answers: one row per frozen output,
// in Outputs() order. Safe for concurrent use; returns ErrClosed after
// Close.
func (s *Server) Predict(samples ...[]float32) ([][]float32, error) {
	r, err := s.newRequest(samples)
	if err != nil {
		return nil, err
	}
	select {
	case s.in <- r:
	case <-s.quit:
		return nil, ErrClosed
	}
	select {
	case resp := <-r.resp:
		return resp.outputs, resp.err
	case <-s.done:
		// The batcher exited; a final drain answers everything it saw, so
		// reaching here means the request slipped in after that drain.
		select {
		case resp := <-r.resp:
			return resp.outputs, resp.err
		default:
			return nil, ErrClosed
		}
	}
}

// PredictContext is Predict with bounded admission and per-request
// cancellation. Where Predict blocks until the queue has room,
// PredictContext never waits for admission: a full queue sheds the request
// immediately with ErrOverloaded, so overload turns into fast feedback
// instead of unbounded queueing. A request whose context is done before
// its batch flushes is answered with the context's error without occupying
// batch rows; cancellation after the flush started does not recall the
// answer (the caller just stops waiting for it).
func (s *Server) PredictContext(ctx context.Context, samples ...[]float32) ([][]float32, error) {
	r, err := s.newRequest(samples)
	if err != nil {
		return nil, err
	}
	r.ctx = ctx
	select {
	case <-s.quit:
		return nil, ErrClosed
	case <-ctx.Done():
		return nil, ctx.Err()
	default:
	}
	select {
	case s.in <- r:
	default:
		s.mu.Lock()
		s.shed++
		s.mu.Unlock()
		return nil, ErrOverloaded
	}
	select {
	case resp := <-r.resp:
		return resp.outputs, resp.err
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.done:
		select {
		case resp := <-r.resp:
			return resp.outputs, resp.err
		default:
			return nil, ErrClosed
		}
	}
}

// newRequest validates one request's sample layout.
func (s *Server) newRequest(samples [][]float32) (*request, error) {
	if len(samples) != len(s.inNames) {
		return nil, fmt.Errorf("serve: request has %d samples, frozen net wants %d (%v)",
			len(samples), len(s.inNames), s.inNames)
	}
	for i, row := range samples {
		if len(row) != s.inRow[i] {
			return nil, fmt.Errorf("serve: input %q sample has %d elements, want %d",
				s.inNames[i], len(row), s.inRow[i])
		}
	}
	return &request{samples: samples, resp: make(chan response, 1), enq: time.Now()}, nil
}

// Close shuts the server down: pending requests are still answered (one
// final flush), later Predicts return ErrClosed. Idempotent.
func (s *Server) Close() {
	s.once.Do(func() { close(s.quit) })
	<-s.done
}

// Stats returns a snapshot of the serving counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Requests: s.requests,
		Batches:  s.batches,
		Samples:  s.samples,
		Retries:  s.retries,
		Failures: s.failures,
		Shed:     s.shed,
		ReqP50:   s.reqLat.Quantile(0.50),
		ReqP99:   s.reqLat.Quantile(0.99),
		BatchP50: s.batchLat.Quantile(0.50),
		BatchP99: s.batchLat.Quantile(0.99),
	}
}

// run is the batcher goroutine: accumulate, flush on batch-full or
// deadline, drain on shutdown.
func (s *Server) run() {
	defer close(s.done)
	var pending []*request
	var timer *time.Timer
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
		}
	}
	for {
		switch {
		case len(pending) == 0:
			// Idle: park until the first request (or shutdown) arrives.
			select {
			case r := <-s.in:
				pending = append(pending, r)
			case <-s.quit:
				s.drainAndExit(pending)
				return
			}
		case len(pending) >= s.cfg.MaxBatch:
			stopTimer()
			s.flush(pending)
			pending = pending[:0]
		case s.cfg.MaxDelay < 0:
			// Greedy: coalesce only what is already queued, then flush.
			select {
			case r := <-s.in:
				pending = append(pending, r)
			default:
				s.flush(pending)
				pending = pending[:0]
			}
		default:
			// Partial batch: wait for more work until the oldest pending
			// request's deadline.
			if timer == nil {
				timer = time.NewTimer(time.Until(pending[0].enq.Add(s.cfg.MaxDelay)))
			}
			select {
			case r := <-s.in:
				pending = append(pending, r)
			case <-timer.C:
				timer = nil
				s.flush(pending)
				pending = pending[:0]
			case <-s.quit:
				stopTimer()
				s.drainAndExit(pending)
				return
			}
		}
	}
}

// drainAndExit answers everything submitted before shutdown: the pending
// partial batch plus whatever sits in the queue, in arrival order, in
// MaxBatch-sized flushes.
func (s *Server) drainAndExit(pending []*request) {
	for {
		for len(pending) < s.cfg.MaxBatch {
			select {
			case r := <-s.in:
				pending = append(pending, r)
				continue
			default:
			}
			break
		}
		if len(pending) == 0 {
			return
		}
		flushN := len(pending)
		if flushN > s.cfg.MaxBatch {
			flushN = s.cfg.MaxBatch
		}
		s.flush(pending[:flushN])
		pending = pending[flushN:]
	}
}

// flush runs one device batch: requests occupy rows 0..n−1 of every input
// blob, the remaining rows are zeroed (padding is never read back), the
// batch stages over the copy stream and runs the frozen forward —
// retrying in place on transient faults — and each request gets its own
// output rows. Request order within the batch is stable across retries,
// so answers are bitwise independent of the fault history.
func (s *Server) flush(reqs []*request) {
	// Answer already-canceled requests without batch rows: their callers
	// have stopped waiting, and answers are independent of co-batching, so
	// dropping them changes no surviving request's bits.
	live := reqs[:0:len(reqs)]
	var canceled int64
	for _, r := range reqs {
		if r.ctx != nil && r.ctx.Err() != nil {
			r.resp <- response{err: r.ctx.Err()}
			canceled++
			continue
		}
		live = append(live, r)
	}
	if canceled > 0 {
		s.mu.Lock()
		s.failures += canceled
		s.mu.Unlock()
	}
	reqs = live
	if len(reqs) == 0 {
		return
	}

	t0 := time.Now()
	n := len(reqs)
	for ii, name := range s.inNames {
		data := s.fz.Blob(name).Data.Data()
		row := s.inRow[ii]
		for ri, r := range reqs {
			copy(data[ri*row:(ri+1)*row], r.samples[ii])
		}
		for i := n * row; i < len(data); i++ {
			data[i] = 0
		}
	}
	var err error
	if b := s.cfg.Budget; b != nil {
		g := b.Acquire(1)
		defer b.Release(g)
	}
	for attempt := 0; ; attempt++ {
		if err = s.stageAndForward(); err == nil {
			break
		}
		if attempt >= batchRetries || !core.IsTransient(err) {
			break
		}
		s.mu.Lock()
		s.retries++
		s.mu.Unlock()
	}
	batchLat := time.Since(t0)
	if err != nil {
		err = fmt.Errorf("serve: batch of %d failed: %w", n, err)
		s.mu.Lock()
		s.failures += int64(n)
		s.mu.Unlock()
		for _, r := range reqs {
			r.resp <- response{err: err}
		}
		return
	}
	outs := make([][]float32, len(s.outNames))
	for oi, name := range s.outNames {
		outs[oi] = s.fz.Blob(name).Data.Data()
	}
	// Count before answering: a client holding its answer must already be
	// in Stats.
	now := time.Now()
	lats := make([]time.Duration, n)
	s.mu.Lock()
	s.requests += int64(n)
	s.batches++
	s.samples += int64(n)
	for ri, r := range reqs {
		lats[ri] = now.Sub(r.enq)
		s.reqLat.Add(lats[ri])
	}
	s.batchLat.Add(batchLat)
	s.mu.Unlock()
	for ri, r := range reqs {
		rows := make([][]float32, len(outs))
		for oi := range outs {
			row := s.outRow[oi]
			rows[oi] = append([]float32(nil), outs[oi][ri*row:(ri+1)*row]...)
		}
		r.resp <- response{outputs: rows}
	}
	if obs := s.cfg.Observer; obs != nil {
		for _, lat := range lats {
			obs.ServeRequest(lat)
		}
		obs.ServeBatch(n, batchLat)
	}
	if a := s.cfg.Adapter; a != nil {
		a.BatchBoundary()
	}
}

// stageAndForward is one attempt: input H2D staging (copy stream when the
// launcher has one) followed by the frozen forward.
func (s *Server) stageAndForward() error {
	if err := s.fz.StageInputs(s.ctx); err != nil {
		return err
	}
	return s.fz.Forward(s.ctx)
}
