package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/simgpu"
)

// buildFrozen is a small classifier (with a dropout for the fold path)
// frozen for serving. Identical seeds give identical weights, so two
// calls produce servers that must answer bitwise identically.
func buildFrozen(t testing.TB, batch int, seed int64) (*dnn.Net, *dnn.FrozenNet) {
	t.Helper()
	ctx := dnn.NewContext(dnn.HostLauncher{}, seed)
	ic1 := dnn.IP(5)
	ic1.Seed = seed
	ic2 := dnn.IP(3)
	ic2.Seed = seed + 1
	net, err := dnn.NewNet("serve-test").
		Input("data", batch, 6).
		Add(dnn.NewIP("ip1", ic1), []string{"data"}, []string{"h"}).
		Add(dnn.NewReLU("relu"), []string{"h"}, []string{"hr"}).
		Add(dnn.NewDropout("drop", 0.4), []string{"hr"}, []string{"hd"}).
		Add(dnn.NewIP("ip2", ic2), []string{"hd"}, []string{"scores"}).
		Build(ctx)
	if err != nil {
		t.Fatal(err)
	}
	fz, err := dnn.Freeze(net)
	if err != nil {
		t.Fatal(err)
	}
	return net, fz
}

// reference computes the expected answer for one sample on a private
// frozen twin: the sample in row 0, everything else zero. Per-sample
// independence makes this the answer regardless of batch placement.
func reference(t testing.TB, batch int, seed int64, sample []float32) []float32 {
	t.Helper()
	_, fz := buildFrozen(t, batch, seed)
	in := make([]float32, fz.Blob("data").Count())
	copy(in, sample)
	if err := fz.SetInput("data", in); err != nil {
		t.Fatal(err)
	}
	if err := fz.Forward(dnn.NewContext(dnn.HostLauncher{}, 1)); err != nil {
		t.Fatal(err)
	}
	out, err := fz.Output("scores")
	if err != nil {
		t.Fatal(err)
	}
	return append([]float32(nil), out[:3]...)
}

func assertRowBits(t *testing.T, got, want []float32, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: row length %d vs %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d]: %08x vs %08x", what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestServeDynamicBatching: concurrent single-sample clients, answers
// bitwise equal to a clean single-sample reference, and the batcher
// actually coalesces (fewer batches than requests).
func TestServeDynamicBatching(t *testing.T) {
	const batch, seed, nReq = 4, 601, 32
	_, fz := buildFrozen(t, batch, seed)
	srv, err := New(fz, dnn.NewContext(dnn.HostLauncher{}, 1), Config{
		MaxBatch: batch,
		MaxDelay: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	gen := NewLoadGen(seed, time.Millisecond)
	var wg sync.WaitGroup
	results := make([][]float32, nReq)
	errs := make([]error, nReq)
	for id := 0; id < nReq; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			out, err := srv.Predict(gen.Sample(id, 0, 6))
			if err != nil {
				errs[id] = err
				return
			}
			results[id] = out[0]
		}(id)
	}
	wg.Wait()
	for id := 0; id < nReq; id++ {
		if errs[id] != nil {
			t.Fatalf("request %d: %v", id, errs[id])
		}
		assertRowBits(t, results[id], reference(t, batch, seed, gen.Sample(id, 0, 6)),
			fmt.Sprintf("request %d", id))
	}
	st := srv.Stats()
	if st.Requests != nReq {
		t.Fatalf("requests = %d, want %d", st.Requests, nReq)
	}
	if st.Batches >= nReq {
		t.Fatalf("batches = %d for %d requests: no coalescing happened", st.Batches, nReq)
	}
	if st.Samples != nReq || st.Failures != 0 {
		t.Fatalf("samples=%d failures=%d", st.Samples, st.Failures)
	}
	if st.ReqP50 <= 0 || st.ReqP99 < st.ReqP50 || st.BatchP50 <= 0 {
		t.Fatalf("latency quantiles not recorded: %+v", st)
	}
}

// TestServeDeadlineFlush: a lone request in a MaxBatch=8 server must be
// answered by the deadline flush, not wait for a full batch forever.
func TestServeDeadlineFlush(t *testing.T) {
	_, fz := buildFrozen(t, 8, 602)
	srv, err := New(fz, dnn.NewContext(dnn.HostLauncher{}, 1), Config{
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := srv.Predict(make([]float32, 6)); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("deadline flush never fired")
	}
	if st := srv.Stats(); st.Batches != 1 || st.Samples != 1 {
		t.Fatalf("stats after lone request: %+v", st)
	}
}

// TestServeGreedyFlush: MaxDelay < 0 answers immediately with whatever is
// queued.
func TestServeGreedyFlush(t *testing.T) {
	_, fz := buildFrozen(t, 8, 603)
	srv, err := New(fz, dnn.NewContext(dnn.HostLauncher{}, 1), Config{MaxDelay: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Predict(make([]float32, 6)); err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.Requests != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestServeValidation(t *testing.T) {
	_, fz := buildFrozen(t, 2, 604)
	srv, err := New(fz, dnn.NewContext(dnn.HostLauncher{}, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Predict(); err == nil {
		t.Fatal("no samples accepted")
	}
	if _, err := srv.Predict(make([]float32, 5)); err == nil {
		t.Fatal("short sample accepted")
	}
	if got := srv.Inputs(); len(got) != 1 || got[0] != "data" {
		t.Fatalf("inputs = %v", got)
	}
	if got := srv.Outputs(); len(got) != 1 || got[0] != "scores" {
		t.Fatalf("outputs = %v", got)
	}
	if got := srv.RowSizes(); len(got) != 1 || got[0] != 6 {
		t.Fatalf("row sizes = %v", got)
	}
}

func TestServeClose(t *testing.T) {
	_, fz := buildFrozen(t, 2, 605)
	srv, err := New(fz, dnn.NewContext(dnn.HostLauncher{}, 1), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Predict(make([]float32, 6)); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // idempotent
	if _, err := srv.Predict(make([]float32, 6)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Predict after Close = %v, want ErrClosed", err)
	}
}

// flakyLauncher fails every failEvery-th kernel launch with err before any
// math runs — a deterministic device-fault storm at the serving layer.
type flakyLauncher struct {
	dnn.HostLauncher
	every int32
	err   error
	count atomic.Int32
	fails atomic.Int32
}

// flakyFault marks itself retryable the way simgpu.FaultError does, so
// core.IsTransient classifies it as a transient device fault.
type flakyFault struct{}

func (flakyFault) Error() string   { return "flaky: injected transient launch fault" }
func (flakyFault) Transient() bool { return true }

var errPersistent = errors.New("flaky: injected persistent launch fault")

func (f *flakyLauncher) Launch(k *simgpu.Kernel, chain int) error {
	if f.count.Add(1)%f.every == 0 {
		f.fails.Add(1)
		return fmt.Errorf("launch %s: %w", k.Name, f.err)
	}
	return f.HostLauncher.Launch(k, chain)
}

// TestServeFaultStormRetriesBatch: under injected transient faults the
// batcher retries failed batches in place — every concurrent request is
// answered, bitwise equal to the fault-free reference, none dropped and
// none reordered within its retried batch.
func TestServeFaultStormRetriesBatch(t *testing.T) {
	const batch, seed, nReq = 4, 606, 24
	_, fz := buildFrozen(t, batch, seed)
	fl := &flakyLauncher{every: 7, err: flakyFault{}}
	srv, err := New(fz, dnn.NewContext(fl, 1), Config{
		MaxBatch: batch,
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	gen := NewLoadGen(seed, 500*time.Microsecond)
	var wg sync.WaitGroup
	results := make([][]float32, nReq)
	errs := make([]error, nReq)
	for id := 0; id < nReq; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			out, err := srv.Predict(gen.Sample(id, 0, 6))
			if err != nil {
				errs[id] = err
				return
			}
			results[id] = out[0]
		}(id)
	}
	wg.Wait()
	for id := 0; id < nReq; id++ {
		if errs[id] != nil {
			t.Fatalf("request %d dropped: %v", id, errs[id])
		}
		assertRowBits(t, results[id], reference(t, batch, seed, gen.Sample(id, 0, 6)),
			fmt.Sprintf("request %d under faults", id))
	}
	if fl.fails.Load() == 0 {
		t.Fatal("fault storm injected nothing")
	}
	st := srv.Stats()
	if st.Retries == 0 {
		t.Fatalf("no batch retries recorded despite %d injected faults", fl.fails.Load())
	}
	if st.Failures != 0 || st.Requests != nReq {
		t.Fatalf("stats under faults: %+v", st)
	}
}

// TestServeNonTransientFails: a persistent error is answered to every
// request in the batch, not retried forever.
func TestServeNonTransientFails(t *testing.T) {
	_, fz := buildFrozen(t, 2, 607)
	fl := &flakyLauncher{every: 1, err: errPersistent} // every launch fails
	srv, err := New(fz, dnn.NewContext(fl, 1), Config{
		MaxDelay: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Predict(make([]float32, 6)); !errors.Is(err, errPersistent) {
		t.Fatalf("want the injected error surfaced, got %v", err)
	}
	if st := srv.Stats(); st.Failures != 1 || st.Requests != 0 {
		t.Fatalf("failure accounting: %+v", st)
	}
}

// TestServeLedgerObserver: wiring a *core.Ledger as the Observer lands
// serving counters in the runtime's overhead ledger.
func TestServeLedgerObserver(t *testing.T) {
	led := &core.Ledger{}
	var _ Observer = led // compile-time interface check
	_, fz := buildFrozen(t, 2, 608)
	srv, err := New(fz, dnn.NewContext(dnn.HostLauncher{}, 1), Config{
		MaxDelay: -1,
		Observer: led,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := srv.Predict(make([]float32, 6)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	snap := led.Snapshot()
	if snap.ServeRequests != 3 || snap.ServeBatches == 0 || snap.ServeSamples != 3 {
		t.Fatalf("ledger serving counters: %s", snap.Serving())
	}
	if snap.ServeReqP50 <= 0 || snap.ServeReqP99 < snap.ServeReqP50 {
		t.Fatalf("ledger quantiles: %s", snap.Serving())
	}
}

// TestServeCloseDrainsPending: requests pending when Close lands are
// answered by the shutdown flush, not dropped. With MaxBatch=4 and a
// deadline that never fires, 6 requests leave a partial batch of 2 that
// only Close can flush.
func TestServeCloseDrainsPending(t *testing.T) {
	const nReq = 6
	_, fz := buildFrozen(t, 4, 609)
	srv, err := New(fz, dnn.NewContext(dnn.HostLauncher{}, 1), Config{
		MaxBatch: 4,
		MaxDelay: time.Hour, // deadline never fires: only batch-full or Close flushes
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var answered atomic.Int32
	for id := 0; id < nReq; id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Predict(make([]float32, 6)); err == nil {
				answered.Add(1)
			}
		}()
	}
	time.Sleep(50 * time.Millisecond) // let every request enqueue
	srv.Close()
	wg.Wait()
	if answered.Load() != nReq {
		t.Fatalf("Close answered %d of %d pending requests", answered.Load(), nReq)
	}
}

// TestPredictContextMatchesPredict: the context-aware entry point answers
// bitwise what Predict answers.
func TestPredictContextMatchesPredict(t *testing.T) {
	const batch, seed = 4, 701
	_, fz := buildFrozen(t, batch, seed)
	srv, err := New(fz, dnn.NewContext(dnn.HostLauncher{}, 1), Config{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sample := []float32{0.5, -1, 2, 0.25, -0.75, 1.5}
	want := reference(t, batch, seed, sample)
	got, err := srv.PredictContext(context.Background(), sample)
	if err != nil {
		t.Fatal(err)
	}
	assertRowBits(t, got[0], want, "PredictContext scores")
}

// blockingObserver parks the batcher inside flush until released, so tests
// can deterministically fill the admission queue behind it.
type blockingObserver struct {
	entered chan struct{}
	release chan struct{}
}

func (o *blockingObserver) ServeRequest(time.Duration) {}
func (o *blockingObserver) ServeBatch(int, time.Duration) {
	select {
	case o.entered <- struct{}{}:
	default: // later flushes (after release) have no listener
	}
	<-o.release
}

// TestPredictContextShedsWhenOverloaded: with the batcher wedged and the
// admission queue full, PredictContext fails fast with ErrOverloaded (and
// the shed shows up in Stats), while the queued request is still answered
// once the batcher frees up.
func TestPredictContextShedsWhenOverloaded(t *testing.T) {
	const batch, seed = 4, 702
	_, fz := buildFrozen(t, batch, seed)
	obs := &blockingObserver{entered: make(chan struct{}), release: make(chan struct{})}
	srv, err := New(fz, dnn.NewContext(dnn.HostLauncher{}, 1), Config{
		MaxBatch: 1,  // so the admission queue is 4 deep
		MaxDelay: -1, // greedy: flush immediately
		Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sample := []float32{1, 2, 3, 4, 5, 6}

	// First request flushes and wedges the batcher inside the observer.
	first := make(chan error, 1)
	go func() {
		_, err := srv.Predict(sample)
		first <- err
	}()
	<-obs.entered

	// With the batcher wedged, admitted probes stay parked in the queue;
	// each uses a short deadline so the test never blocks on them. Once
	// probes fill the queue, the next one must shed.
	shed := false
	for i := 0; i < 200 && !shed; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		_, err := srv.PredictContext(ctx, sample)
		cancel()
		shed = errors.Is(err, ErrOverloaded)
	}
	if !shed {
		t.Fatal("queue never filled: no ErrOverloaded")
	}
	if got := srv.Stats().Shed; got < 1 {
		t.Fatalf("Stats().Shed = %d, want ≥ 1", got)
	}

	close(obs.release)
	if err := <-first; err != nil {
		t.Fatalf("first request failed: %v", err)
	}
}

// TestPredictContextCanceled: a request canceled while queued returns the
// context error to its caller, and the batcher sheds it at flush time
// without computing it.
func TestPredictContextCanceled(t *testing.T) {
	const batch, seed = 4, 703
	_, fz := buildFrozen(t, batch, seed)
	srv, err := New(fz, dnn.NewContext(dnn.HostLauncher{}, 1), Config{
		MaxBatch: batch,
		MaxDelay: time.Hour, // park the partial batch so cancellation wins
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := srv.PredictContext(ctx, []float32{1, 2, 3, 4, 5, 6})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled request returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled request never returned")
	}
}
