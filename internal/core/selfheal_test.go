package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/dnn"
	"repro/internal/simgpu"
)

// fnInjector adapts a closure to simgpu.Injector, so tests can script
// precise fault windows (e.g. "fail the next 4 launches").
type fnInjector func(op simgpu.Op, name string) simgpu.Fault

func (f fnInjector) Decide(op simgpu.Op, name string) simgpu.Fault { return f(op, name) }

// dispatch launches a test kernel through a dnn context over rt on the
// default stream, fn as its host math: Context.Dispatch is where a kernel's
// closure runs, after its launch succeeded.
func dispatch(rt *Runtime, name string, fn func()) error {
	return dnn.NewContext(rt, 1).Dispatch(testKernel(name, ""), fn, -1)
}

func TestIsTransient(t *testing.T) {
	fe := &simgpu.FaultError{Op: simgpu.OpLaunch, Name: "k", N: 1}
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("plain"), false},
		{fe, true},
		{fmt.Errorf("wrapped: %w", fe), true},
		{errors.Join(errors.New("a"), fmt.Errorf("b: %w", fe)), true},
		{errors.Join(errors.New("a"), errors.New("b")), false},
	}
	for i, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("case %d (%v): IsTransient = %v, want %v", i, c.err, got, c.want)
		}
	}
}

// TestLaunchRetryRecovers: transient launch faults inside the retry budget
// are absorbed; the kernel's math runs exactly once.
func TestLaunchRetryRecovers(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100,
		simgpu.WithInjector(simgpu.FaultPlan{Seed: 1, Launch: 1, MaxFaults: 2}.Injector()))
	fw := New()
	defer fw.Close()
	rt := fw.Runtime(dev)

	runs := 0
	if err := dispatch(rt, "k", func() { runs++ }); err != nil {
		t.Fatalf("launch did not recover: %v", err)
	}
	if runs != 1 {
		t.Fatalf("kernel math ran %d times, want exactly 1", runs)
	}
	snap := rt.Ledger().Snapshot()
	if snap.LaunchRetries != 2 {
		t.Fatalf("LaunchRetries = %d, want 2", snap.LaunchRetries)
	}
	if snap.LaunchFailures != 0 || snap.StreamQuarantines != 0 {
		t.Fatalf("unexpected failure counters: %s", snap.Health())
	}
}

// TestLaunchFailureSurfacesTerminalError: terminal errors (invalid launch
// config) are not retried and not counted as recoveries.
func TestLaunchFailureSurfacesTerminalError(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100)
	fw := New()
	defer fw.Close()
	rt := fw.Runtime(dev)

	bad := testKernel("bad", "")
	bad.Config.Block = simgpu.D1(1 << 20) // far beyond any device's threads/block limit
	if err := rt.Launch(bad, -1); err == nil {
		t.Fatal("invalid launch succeeded")
	} else if IsTransient(err) {
		t.Fatalf("validation error classified transient: %v", err)
	}
	if snap := rt.Ledger().Snapshot(); snap.LaunchRetries != 0 {
		t.Fatalf("terminal error was retried: %s", snap.Health())
	}
}

// TestLaunchQuarantineAndDegrade: a pool stream that keeps refusing
// launches is quarantined and the kernel degrades to the default stream —
// the iteration completes with no error surfaced to the training loop.
func TestLaunchQuarantineAndDegrade(t *testing.T) {
	var failNext atomic.Int64
	failNext.Store(-1 << 40) // disabled until armed
	dev := simgpu.NewDevice(simgpu.TeslaP100, simgpu.WithInjector(
		fnInjector(func(op simgpu.Op, name string) simgpu.Fault {
			if op == simgpu.OpLaunch && failNext.Add(-1) >= 0 {
				return simgpu.Fault{Err: &simgpu.FaultError{Op: op, Name: name, N: 1}}
			}
			return simgpu.Fault{}
		})))
	fw := New()
	defer fw.Close()
	rt := fw.Runtime(dev)
	net := heavyConvNet(t, 8)
	ctx := dnn.NewContext(rt, 1)
	ctx.Compute = false

	// Two fault-free iterations: profile, then analyze into a pooled plan.
	for i := 0; i < 2; i++ {
		if _, err := net.Forward(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if rt.Pool().Size() < 2 {
		t.Fatalf("pool size %d; test needs a pooled plan", rt.Pool().Size())
	}
	poolBefore := rt.Pool().Size()

	// Arm exactly one full retry budget: the first pooled launch of the
	// next iteration burns it, gets its stream quarantined, and lands on
	// the default stream.
	failNext.Store(launchAttempts)
	if _, err := net.Forward(ctx); err != nil {
		t.Fatalf("iteration under stream failure did not self-heal: %v", err)
	}
	snap := rt.Ledger().Snapshot()
	if snap.StreamQuarantines != 1 {
		t.Fatalf("StreamQuarantines = %d, want 1 (%s)", snap.StreamQuarantines, snap.Health())
	}
	if snap.Degradations != 1 {
		t.Fatalf("Degradations = %d, want 1 (%s)", snap.Degradations, snap.Health())
	}
	if snap.LaunchRetries != launchAttempts-1 {
		t.Fatalf("LaunchRetries = %d, want %d (%s)", snap.LaunchRetries, launchAttempts-1, snap.Health())
	}
	if snap.LaunchFailures != 0 {
		t.Fatalf("launch failure surfaced despite default-stream escape: %s", snap.Health())
	}
	if rt.Pool().Size() != poolBefore {
		t.Fatalf("pool size %d after quarantine, want %d (replacement in-slot)",
			rt.Pool().Size(), poolBefore)
	}
}

// TestSyncRetryRecovers: transient synchronization faults are retried; no
// queued work is lost.
func TestSyncRetryRecovers(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100,
		simgpu.WithInjector(simgpu.FaultPlan{Seed: 2, Sync: 1, MaxFaults: 2}.Injector()))
	fw := New()
	defer fw.Close()
	rt := fw.Runtime(dev)

	runs := 0
	if err := dispatch(rt, "k", func() { runs++ }); err != nil {
		t.Fatal(err)
	}
	if err := rt.Sync(); err != nil {
		t.Fatalf("sync did not recover: %v", err)
	}
	if runs != 1 {
		t.Fatalf("kernel ran %d times", runs)
	}
	if snap := rt.Ledger().Snapshot(); snap.SyncRetries != 2 {
		t.Fatalf("SyncRetries = %d, want 2 (%s)", snap.SyncRetries, snap.Health())
	}
}

// TestUploadBytesRetries: transient DMA faults on the input upload are
// retried.
func TestUploadBytesRetries(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100,
		simgpu.WithInjector(simgpu.FaultPlan{Seed: 3, Memcpy: 1, MaxFaults: 2}.Injector()))
	fw := New()
	defer fw.Close()
	rt := fw.Runtime(dev)

	if err := rt.UploadBytes(1 << 20); err != nil {
		t.Fatalf("upload did not recover: %v", err)
	}
	if snap := rt.Ledger().Snapshot(); snap.MemcpyRetries != 2 {
		t.Fatalf("MemcpyRetries = %d, want 2 (%s)", snap.MemcpyRetries, snap.Health())
	}
}

// TestStreamRefusalPinsSerialPlan: when the device refuses stream creation
// entirely, analysis pins the layer to serial dispatch — the plan keeps its
// analyzed width (the numeric contract) but every launch lands on the
// default stream, so training proceeds with unchanged bits.
func TestStreamRefusalPinsSerialPlan(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100,
		simgpu.WithInjector(simgpu.FaultPlan{Seed: 4, CreateStream: 1}.Injector()))
	fw := New()
	defer fw.Close()
	rt := fw.Runtime(dev)
	net := heavyConvNet(t, 8)
	ctx := dnn.NewContext(rt, 1)
	ctx.Compute = false

	for i := 0; i < 3; i++ {
		if _, err := net.Forward(ctx); err != nil {
			t.Fatalf("iteration %d on a streamless device: %v", i, err)
		}
	}
	if rt.Pool().Size() != 0 {
		t.Fatalf("pool grew to %d on a device refusing streams", rt.Pool().Size())
	}
	plan, ok := rt.Analyzer().Cached("conv/fwd")
	if !ok {
		t.Fatal("no cached plan for conv/fwd")
	}
	if !plan.Serial {
		t.Fatalf("conv plan not pinned to serial dispatch: %s", plan)
	}
	if plan.Streams < 2 {
		t.Fatalf("degradation changed the plan width (got %d): width is part of the numeric contract", plan.Streams)
	}
	if snap := rt.Ledger().Snapshot(); snap.Degradations == 0 {
		t.Fatalf("stream refusal not recorded as degradation: %s", snap.Health())
	}
}

// TestWatchdogDegradesHangingLayer: hang-injected kernels trip the sync
// watchdog and their layers are demoted to serial dispatch, keeping the
// planned width.
func TestWatchdogDegradesHangingLayer(t *testing.T) {
	var hang atomic.Bool
	dev := simgpu.NewDevice(simgpu.TeslaP100, simgpu.WithInjector(
		fnInjector(func(op simgpu.Op, name string) simgpu.Fault {
			if op == simgpu.OpLaunch && hang.Load() {
				return simgpu.Fault{Delay: simgpu.DefaultHangDelay}
			}
			return simgpu.Fault{}
		})))
	fw := New()
	defer fw.Close()
	rt := fw.Runtime(dev)
	net := heavyConvNet(t, 8)
	ctx := dnn.NewContext(rt, 1)
	ctx.Compute = false

	for i := 0; i < 2; i++ {
		if _, err := net.Forward(ctx); err != nil {
			t.Fatal(err)
		}
	}
	plan, _ := rt.Analyzer().Cached("conv/fwd")
	if plan == nil || plan.Streams < 2 {
		t.Fatalf("test needs a pooled conv plan, have %v", plan)
	}

	hang.Store(true)
	if _, err := net.Forward(ctx); err != nil {
		t.Fatal(err)
	}
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	snap := rt.Ledger().Snapshot()
	if snap.WatchdogTrips == 0 {
		t.Fatalf("no watchdog trips despite injected hangs: %s", snap.Health())
	}
	plan, _ = rt.Analyzer().Cached("conv/fwd")
	if plan == nil || !plan.Serial {
		t.Fatalf("hung layer not degraded to serial dispatch: %v", plan)
	}
	if plan.Streams < 2 {
		t.Fatalf("watchdog degradation changed the plan width (got %d)", plan.Streams)
	}
}

// TestWatchdogDisabled: a zero limit turns the watchdog off.
func TestWatchdogDisabled(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100, simgpu.WithInjector(
		simgpu.FaultPlan{Seed: 5, Hang: 1}.Injector()))
	fw := New()
	defer fw.Close()
	rt := fw.Runtime(dev)
	rt.wdLimit = 0

	if err := rt.Launch(testKernel("slow", ""), -1); err != nil {
		t.Fatal(err)
	}
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
	if snap := rt.Ledger().Snapshot(); snap.WatchdogTrips != 0 {
		t.Fatalf("disabled watchdog tripped: %s", snap.Health())
	}
}

// TestQuarantineReplacesStream: quarantine swaps the failed stream out
// in-slot; the default stream is never quarantined.
func TestQuarantineReplacesStream(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100)
	fw := New()
	defer fw.Close()
	pool := fw.Runtime(dev).Pool()
	if n, err := pool.EnsureSize(3); n != 3 || err != nil {
		t.Fatalf("EnsureSize = %d, %v", n, err)
	}
	victim := pool.Stream(1)
	if !pool.Quarantine(victim) {
		t.Fatal("pool stream not quarantined")
	}
	if pool.Size() != 3 {
		t.Fatalf("pool size %d after quarantine, want 3", pool.Size())
	}
	if pool.Stream(1) == victim {
		t.Fatal("quarantined stream still in rotation")
	}
	if pool.Quarantine(victim) {
		t.Fatal("re-quarantined a stream no longer in the pool")
	}
	if pool.Quarantine(nil) || pool.Quarantine(dev.DefaultStream()) {
		t.Fatal("quarantined the default stream")
	}
	// Launching on the replacement works.
	if err := dev.Launch(testKernel("k", ""), pool.Stream(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Synchronize(); err != nil {
		t.Fatal(err)
	}
}

// TestEnsureSizePartialGrowth: a device refusing further streams mid-growth
// leaves a usable partial pool and reports the achieved size.
func TestEnsureSizePartialGrowth(t *testing.T) {
	var created atomic.Int64
	dev := simgpu.NewDevice(simgpu.TeslaP100, simgpu.WithInjector(
		fnInjector(func(op simgpu.Op, name string) simgpu.Fault {
			if op == simgpu.OpCreateStream && created.Add(1) > 2 {
				return simgpu.Fault{Err: &simgpu.FaultError{Op: op, N: created.Load()}}
			}
			return simgpu.Fault{}
		})))
	fw := New()
	defer fw.Close()
	pool := fw.Runtime(dev).Pool()
	n, err := pool.EnsureSize(5)
	if n != 2 {
		t.Fatalf("EnsureSize achieved %d, want 2", n)
	}
	if err == nil || !IsTransient(err) {
		t.Fatalf("expected the transient refusal, got %v", err)
	}
	if s := pool.Stream(7); s == nil {
		t.Fatal("partial pool does not wrap indices")
	}
}
