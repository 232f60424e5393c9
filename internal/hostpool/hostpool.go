// Package hostpool is the host-side parallel execution engine: a shared,
// bounded worker pool that runs independent kernel dependency chains on
// separate goroutines. It is the host mirror of the simulated stream pool —
// where internal/core's StreamPool overlaps kernels in *virtual* time, a
// hostpool.Pool overlaps the kernels' real float32 host math in *wall-clock*
// time, so a layer whose plan says "8 streams" really computes 8 chains at
// once on host cores.
//
// Determinism contract: work is submitted to logical lanes. Every task in a
// lane executes in submission order on a single in-flight runner, so two
// chains that share scratch buffers (layers index per-chain scratch by
// chain % width and route both chains to the same lane) can never race, and
// the floating-point operations of one lane happen in exactly the order the
// serial path would execute them. Cross-lane work touches disjoint memory by
// the layer contract (per-sample slices, per-chain partial buffers folded in
// fixed order after a barrier), so any interleaving of lanes yields
// bit-identical results.
package hostpool

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool bounds how many chain tasks may execute concurrently. It is shared:
// one pool can serve many ChainSets (many layers, many nets, many replicas)
// at once, so total host CPU use stays bounded no matter how wide the
// planned stream pools are.
type Pool struct {
	sem chan struct{}
}

// New builds a pool running at most workers tasks at once; workers <= 0
// selects GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, workers)}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.sem) }

func (p *Pool) acquire() { p.sem <- struct{}{} }
func (p *Pool) release() { <-p.sem }

// Acquire blocks until a pool slot is free and takes it. It lets external
// long-lived workers — the data prefetcher's fill goroutines — count
// against the same host-concurrency budget as chain tasks. Every Acquire
// must be paired with exactly one Release; holders must not block on other
// pool work while holding a slot (that is Group's job).
func (p *Pool) Acquire() { p.acquire() }

// Release returns a slot taken with Acquire.
func (p *Pool) Release() { p.release() }

// tryAcquire takes a pool slot only if one is free right now.
func (p *Pool) tryAcquire() bool {
	select {
	case p.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Run executes fn(0..tasks-1), sharding tasks across pool slots. The calling
// goroutine always participates and helper goroutines only join when a slot
// is free at spawn time (non-blocking acquire), so Run is safe to call from
// inside a pool task — a fully loaded pool degrades to serial execution on
// the caller instead of deadlocking. Tasks must touch disjoint state (the
// row-band contract of tensor.GemmParallelPacked); Run returns after every task
// has completed.
//
// A panicking task is recovered — on helper goroutines and on the caller
// alike — and surfaces in the joined error return; the remaining tasks
// still run, so the exactly-once contract holds even when some tasks blow
// up.
func (p *Pool) Run(tasks int, fn func(task int)) error {
	if tasks <= 0 {
		return nil
	}
	if tasks == 1 {
		return protectTask(fn, 0)
	}
	r := runs.Get().(*run)
	r.pool, r.fn, r.tasks = p, fn, tasks
	r.next.Store(0)
	helpers := tasks - 1
	if w := cap(p.sem); helpers > w {
		helpers = w
	}
	for h := 0; h < helpers; h++ {
		if !p.tryAcquire() {
			break
		}
		r.wg.Add(1)
		go r.helper()
	}
	r.loop()
	r.wg.Wait()
	err := errors.Join(r.errs...)
	clear(r.errs)
	r.errs, r.fn, r.pool = r.errs[:0], nil, nil
	runs.Put(r)
	return err
}

// run is the shared state of one Run call, recycled through runs so a warm
// Run allocates nothing: helper, the body of a helper goroutine, is built
// once with the state, so starting one allocates no closure either.
type run struct {
	pool   *Pool
	fn     func(task int)
	tasks  int
	next   atomic.Int64
	wg     sync.WaitGroup
	errMu  sync.Mutex
	errs   []error
	helper func()
}

var runs = sync.Pool{New: func() any {
	r := new(run)
	r.helper = func() {
		defer r.wg.Done()
		defer r.pool.release()
		r.loop()
	}
	return r
}}

// loop runs tasks until none is left.
func (r *run) loop() {
	for {
		t := int(r.next.Add(1)) - 1
		if t >= r.tasks {
			return
		}
		if err := protectTask(r.fn, t); err != nil {
			r.errMu.Lock()
			r.errs = append(r.errs, err)
			r.errMu.Unlock()
		}
	}
}

// protectTask runs fn(t), converting a panic into an error.
func protectTask(fn func(int), t int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("hostpool: task %d panic: %v", t, r)
		}
	}()
	fn(t)
	return nil
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide shared pool, sized by GOMAXPROCS.
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = New(0) })
	return defaultPool
}

// ChainSet runs tasks over a fixed number of lanes. Tasks submitted to the
// same lane execute serially in FIFO order; distinct lanes execute
// concurrently, bounded by the owning pool. A ChainSet is intended for a
// single submitting goroutine (the kernel dispatcher): Submit calls must not
// race with each other or with Wait, which mirrors how one host thread
// drives a GPU's streams.
type ChainSet struct {
	pool  *Pool
	lanes []*lane

	wg sync.WaitGroup

	errMu sync.Mutex
	errs  []error
}

// lane is one in-order task queue with at most one in-flight runner. The
// queue is queue[head:]; it rewinds to its start whenever it drains, so a
// warm lane appends without allocating, and runFn is run bound once, so
// starting the runner allocates no closure.
type lane struct {
	cs *ChainSet

	mu     sync.Mutex
	queue  []func()
	head   int
	active bool
	runFn  func()
}

// NewChainSet builds a chain set with the given number of lanes (minimum 1)
// executing on the pool.
func (p *Pool) NewChainSet(lanes int) *ChainSet {
	if lanes < 1 {
		lanes = 1
	}
	cs := &ChainSet{pool: p, lanes: make([]*lane, lanes)}
	for i := range cs.lanes {
		l := &lane{cs: cs}
		l.runFn = l.run
		cs.lanes[i] = l
	}
	return cs
}

// Lanes returns the lane count.
func (cs *ChainSet) Lanes() int { return len(cs.lanes) }

// Submit queues fn on lane i (mod the lane count; negative i maps to lane
// 0). The task runs asynchronously after every earlier task of the same
// lane has finished.
func (cs *ChainSet) Submit(i int, fn func()) {
	if fn == nil {
		return
	}
	if i < 0 {
		i = 0
	}
	l := cs.lanes[i%len(cs.lanes)]
	l.mu.Lock()
	l.queue = append(l.queue, fn)
	if !l.active {
		l.active = true
		cs.wg.Add(1)
		go l.runFn()
	}
	l.mu.Unlock()
}

// run drains the lane queue in FIFO order, holding a pool slot only while a
// task executes so wide chain sets cannot starve other ChainSets sharing
// the pool.
func (l *lane) run() {
	defer l.cs.wg.Done()
	for {
		l.mu.Lock()
		if l.head == len(l.queue) {
			l.queue, l.head = l.queue[:0], 0
			l.active = false
			l.mu.Unlock()
			return
		}
		fn := l.queue[l.head]
		l.queue[l.head] = nil
		l.head++
		l.mu.Unlock()

		l.cs.pool.acquire()
		err := protect(fn)
		l.cs.pool.release()
		if err != nil {
			l.cs.errMu.Lock()
			l.cs.errs = append(l.cs.errs, err)
			l.cs.errMu.Unlock()
		}
	}
}

// protect runs fn, converting a panic into an error so one bad kernel
// closure cannot take the whole process down from a worker goroutine.
func protect(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("hostpool: chain task panic: %v", r)
		}
	}()
	fn()
	return nil
}

// Wait blocks until every submitted task has finished and returns the
// joined errors of tasks that panicked (nil when all succeeded). After Wait
// returns the ChainSet is empty and may be reused for the next batch of
// submissions.
func (cs *ChainSet) Wait() error {
	cs.wg.Wait()
	cs.errMu.Lock()
	errs := cs.errs
	cs.errs = nil
	cs.errMu.Unlock()
	return errors.Join(errs...)
}

// Group runs detached orchestration tasks: goroutines that each drive one
// unit of coordinated pool work — a DAG layer invocation submitting kernel
// chains — and block until that work has drained. Such tasks must not hold
// pool slots themselves: a slot-holding task waiting on its own chain
// closures would deadlock a fully loaded pool, so Group goroutines run
// outside the slot budget and only the chain closures they submit occupy
// slots. Panics are converted to errors like chain tasks. Completions are
// consumed one at a time with Next, so a scheduler can release dependent
// work the moment a task finishes while the rest are still running.
type Group struct {
	done chan GroupResult
}

// GroupResult is one finished Group task.
type GroupResult struct {
	ID  int
	Err error
}

// NewGroup builds a task group. capacity must be at least the number of
// tasks that may finish before the owner consumes their results with Next
// (the total task count is always safe); Go never blocks within it.
func NewGroup(capacity int) *Group {
	if capacity < 1 {
		capacity = 1
	}
	return &Group{done: make(chan GroupResult, capacity)}
}

// Go starts fn on a dedicated goroutine outside the pool's slot budget. The
// task's completion (with its error, or its panic converted to an error) is
// delivered through Next.
func (g *Group) Go(id int, fn func() error) {
	go func() {
		var err error
		func() {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("hostpool: group task %d panic: %v", id, r)
				}
			}()
			err = fn()
		}()
		g.done <- GroupResult{ID: id, Err: err}
	}()
}

// Next blocks until one started task finishes and returns its result. The
// owner must call Next exactly once per Go.
func (g *Group) Next() GroupResult { return <-g.done }
