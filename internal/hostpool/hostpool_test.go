package hostpool

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestLaneFIFOOrder: tasks on one lane run in submission order even with
// many lanes active (the determinism contract layers rely on).
func TestLaneFIFOOrder(t *testing.T) {
	p := New(4)
	cs := p.NewChainSet(8)
	const perLane, lanes = 200, 8
	got := make([][]int, lanes)
	for i := 0; i < perLane; i++ {
		for lane := 0; lane < lanes; lane++ {
			lane, i := lane, i
			cs.Submit(lane, func() { got[lane] = append(got[lane], i) })
		}
	}
	if err := cs.Wait(); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < lanes; lane++ {
		if len(got[lane]) != perLane {
			t.Fatalf("lane %d ran %d/%d tasks", lane, len(got[lane]), perLane)
		}
		for i, v := range got[lane] {
			if v != i {
				t.Fatalf("lane %d task %d ran out of order (got %d)", lane, i, v)
			}
		}
	}
}

// TestLaneModuloRouting: chain ids beyond the lane count wrap (chains
// sharing scratch buffers share a lane and therefore serialize).
func TestLaneModuloRouting(t *testing.T) {
	p := New(2)
	cs := p.NewChainSet(3)
	var order []int
	for chain := 0; chain < 9; chain += 3 { // chains 0,3,6 → all lane 0
		chain := chain
		cs.Submit(chain, func() { order = append(order, chain) })
	}
	if err := cs.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 3 || order[2] != 6 {
		t.Fatalf("same-lane chains ran out of order: %v", order)
	}
}

// TestBoundedWorkers: concurrent task execution never exceeds the pool
// bound, even with more lanes than workers.
func TestBoundedWorkers(t *testing.T) {
	const workers = 3
	p := New(workers)
	cs := p.NewChainSet(16)
	var cur, max atomic.Int64
	var mu sync.Mutex
	for i := 0; i < 64; i++ {
		cs.Submit(i, func() {
			n := cur.Add(1)
			mu.Lock()
			if n > max.Load() {
				max.Store(n)
			}
			mu.Unlock()
			runtime.Gosched()
			cur.Add(-1)
		})
	}
	if err := cs.Wait(); err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > workers {
		t.Fatalf("observed %d concurrent tasks, pool bound is %d", m, workers)
	}
}

// TestPanicCapture: a panicking task surfaces as an error from Wait and the
// set is reusable afterwards.
func TestPanicCapture(t *testing.T) {
	p := New(2)
	cs := p.NewChainSet(2)
	ran := false
	cs.Submit(0, func() { panic("boom") })
	cs.Submit(1, func() { ran = true })
	err := cs.Wait()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("panic not captured: %v", err)
	}
	if !ran {
		t.Fatal("healthy lane did not run")
	}
	// Reuse after an error: the set must be clean.
	ok := false
	cs.Submit(0, func() { ok = true })
	if err := cs.Wait(); err != nil || !ok {
		t.Fatalf("reuse after error failed: %v ok=%v", err, ok)
	}
}

// TestSharedPoolManySets: several chain sets share one pool concurrently
// (the multi-replica trainer shape). Run with -race.
func TestSharedPoolManySets(t *testing.T) {
	p := New(4)
	var wg sync.WaitGroup
	var total atomic.Int64
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cs := p.NewChainSet(4)
			for i := 0; i < 100; i++ {
				cs.Submit(i, func() { total.Add(1) })
			}
			if err := cs.Wait(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if total.Load() != 600 {
		t.Fatalf("ran %d/600 tasks", total.Load())
	}
}

// TestDefaults: worker sizing and the shared default pool.
func TestDefaults(t *testing.T) {
	if w := New(0).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(0) workers = %d, want GOMAXPROCS", w)
	}
	if Default() != Default() {
		t.Fatal("Default() is not a singleton")
	}
	cs := Default().NewChainSet(0)
	if cs.Lanes() != 1 {
		t.Fatalf("lanes clamp: %d", cs.Lanes())
	}
	ran := false
	cs.Submit(-5, func() { ran = true }) // negative chain → lane 0
	cs.Submit(0, nil)                    // nil task is a no-op
	if err := cs.Wait(); err != nil || !ran {
		t.Fatalf("negative-lane submit: err=%v ran=%v", err, ran)
	}
}

// TestRunCoversEveryTask: Run(tasks, fn) executes each task index exactly
// once for a spread of task counts and pool widths.
func TestRunCoversEveryTask(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := New(workers)
		for _, tasks := range []int{0, 1, 2, 3, 7, 64} {
			counts := make([]atomic.Int32, tasks+1)
			p.Run(tasks, func(task int) {
				if task < 0 || task >= tasks {
					t.Errorf("Run(workers=%d, tasks=%d) invoked out-of-range task %d", workers, tasks, task)
					return
				}
				counts[task].Add(1)
			})
			for i := 0; i < tasks; i++ {
				if n := counts[i].Load(); n != 1 {
					t.Errorf("Run(workers=%d, tasks=%d): task %d ran %d times, want 1", workers, tasks, i, n)
				}
			}
		}
	}
}

// TestRunNestedInsidePoolTask: Run called from inside a chain task on a
// fully loaded pool must not deadlock — the caller participates and helpers
// only join via non-blocking acquire. This is the shape kernels.Sgemm creates when
// a row-parallel GEMM runs inside an offloaded chain closure.
func TestRunNestedInsidePoolTask(t *testing.T) {
	p := New(2)
	cs := p.NewChainSet(2)
	var total atomic.Int32
	for lane := 0; lane < 2; lane++ {
		cs.Submit(lane, func() {
			p.Run(8, func(task int) { total.Add(1) })
		})
	}
	if err := cs.Wait(); err != nil {
		t.Fatal(err)
	}
	if total.Load() != 16 {
		t.Fatalf("nested Run completed %d tasks, want 16", total.Load())
	}
}

// TestRunSerialWhenSaturated: with every slot held, Run degrades to serial
// execution on the calling goroutine and still finishes all tasks.
func TestRunSerialWhenSaturated(t *testing.T) {
	p := New(1)
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.acquire()
		<-release
		p.release()
	}()
	for !func() bool { // wait until the slot is actually held
		if p.tryAcquire() {
			p.release()
			return false
		}
		return true
	}() {
		runtime.Gosched()
	}
	var ran atomic.Int32
	p.Run(5, func(task int) { ran.Add(1) })
	close(release)
	wg.Wait()
	if ran.Load() != 5 {
		t.Fatalf("saturated Run completed %d tasks, want 5", ran.Load())
	}
}

// TestRunPanicCapture: panicking Run tasks — on helpers and on the calling
// goroutine — come back as errors, and the surviving tasks still all run
// exactly once.
func TestRunPanicCapture(t *testing.T) {
	p := New(4)
	const tasks = 64
	var ran [tasks]atomic.Int64
	err := p.Run(tasks, func(task int) {
		ran[task].Add(1)
		if task%5 == 0 {
			panic(fmt.Sprintf("boom-%d", task))
		}
	})
	if err == nil {
		t.Fatal("panics not surfaced")
	}
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Fatalf("task %d ran %d times, want 1", i, n)
		}
	}
	for i := 0; i < tasks; i += 5 {
		if !strings.Contains(err.Error(), fmt.Sprintf("boom-%d", i)) {
			t.Fatalf("error lost panic of task %d: %v", i, err)
		}
	}
	// The pool is healthy afterwards: no leaked slots, next Run succeeds.
	var ok atomic.Int64
	if err := p.Run(8, func(int) { ok.Add(1) }); err != nil || ok.Load() != 8 {
		t.Fatalf("pool unhealthy after panics: %v ran=%d", err, ok.Load())
	}
}

// TestRunSingleTaskPanic: the tasks==1 fast path also recovers.
func TestRunSingleTaskPanic(t *testing.T) {
	p := New(2)
	err := p.Run(1, func(int) { panic("solo") })
	if err == nil || !strings.Contains(err.Error(), "solo") {
		t.Fatalf("single-task panic not captured: %v", err)
	}
}

// TestGroupCompletion: every Go gets exactly one Next result, errors
// included, in completion (not submission) order.
func TestGroupCompletion(t *testing.T) {
	g := NewGroup(8)
	for i := 0; i < 8; i++ {
		i := i
		g.Go(i, func() error {
			if i%3 == 0 {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
	}
	seen := map[int]bool{}
	errs := 0
	for i := 0; i < 8; i++ {
		res := g.Next()
		if seen[res.ID] {
			t.Fatalf("task %d reported twice", res.ID)
		}
		seen[res.ID] = true
		if res.Err != nil {
			errs++
		}
	}
	if len(seen) != 8 || errs != 3 {
		t.Fatalf("saw %d tasks, %d errors", len(seen), errs)
	}
}

// TestGroupPanicBecomesError: a panicking group task surfaces as an error
// result instead of crashing the process.
func TestGroupPanicBecomesError(t *testing.T) {
	g := NewGroup(1)
	g.Go(7, func() error { panic("boom") })
	res := g.Next()
	if res.ID != 7 || res.Err == nil || !strings.Contains(res.Err.Error(), "boom") {
		t.Fatalf("panic not converted: %+v", res)
	}
}

// TestGroupDetachedFromPool: group tasks must make progress while every
// pool slot is blocked waiting on chains the group tasks submit — the
// deadlock scenario the detached design exists to avoid.
func TestGroupDetachedFromPool(t *testing.T) {
	p := New(2)
	g := NewGroup(4)
	for i := 0; i < 4; i++ {
		i := i
		g.Go(i, func() error {
			cs := p.NewChainSet(2)
			for c := 0; c < 2; c++ {
				cs.Submit(c, func() {})
			}
			return cs.Wait()
		})
	}
	for i := 0; i < 4; i++ {
		if res := g.Next(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
}

// TestAcquireReleaseSharesBudget: externally held slots (the prefetcher's
// fill workers) count against the same bound as chain tasks — with all
// slots held, a submitted task cannot start until a Release.
func TestAcquireReleaseSharesBudget(t *testing.T) {
	const workers = 2
	p := New(workers)
	var cur, max atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				p.Acquire()
				n := cur.Add(1)
				for {
					m := max.Load()
					if n <= m || max.CompareAndSwap(m, n) {
						break
					}
				}
				runtime.Gosched()
				cur.Add(-1)
				p.Release()
			}
		}()
	}
	wg.Wait()
	if m := max.Load(); m > workers {
		t.Fatalf("observed %d concurrent holders, pool bound is %d", m, workers)
	}

	// A fully Acquired pool defers chain tasks until slots return.
	p.Acquire()
	p.Acquire()
	started := make(chan struct{})
	cs := p.NewChainSet(1)
	cs.Submit(0, func() { close(started) })
	select {
	case <-started:
		t.Fatal("task ran while every slot was externally held")
	case <-time.After(10 * time.Millisecond):
	}
	p.Release()
	p.Release()
	if err := cs.Wait(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	default:
		t.Fatal("task never ran after Release")
	}
}
