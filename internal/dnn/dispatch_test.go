package dnn_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/hostpool"
	"repro/internal/simgpu"
)

// failLaunches is a fault injector that fails the next n kernel launches
// with a transient fault.
type failLaunches struct{ n int }

func (f *failLaunches) Decide(op simgpu.Op, name string) simgpu.Fault {
	if op != simgpu.OpLaunch || f.n <= 0 {
		return simgpu.Fault{}
	}
	f.n--
	return simgpu.Fault{Err: &simgpu.FaultError{Op: op, Name: name, N: 1}}
}

// TestDispatchRunsClosureOnlyAfterLaunch: Context.Dispatch is the one place
// a kernel's host closure runs, and only after its launch succeeded — so a
// failed launch runs no closure and a retried launch runs it exactly once,
// which keeps recovery convergence-invariant for accumulating kernels.
// Driven through core.Runtime on a fault-injecting device, on a serial and
// a pooled context: faults inside the runtime's retry budget are absorbed
// (one run); a launch that exhausts it fails with no run, and the caller's
// retry runs the closure once. A timing-only context launches and never
// runs it.
func TestDispatchRunsClosureOnlyAfterLaunch(t *testing.T) {
	for _, pool := range []*hostpool.Pool{nil, hostpool.New(2)} {
		inj := &failLaunches{}
		dev := simgpu.NewDevice(simgpu.TeslaP100, simgpu.WithInjector(inj))
		fw := core.New()
		rt := fw.Runtime(dev)
		ctx := dnn.NewContext(rt, 1)
		ctx.Pool = pool
		k := &simgpu.Kernel{Name: "accumulate", Config: simgpu.LaunchConfig{Grid: simgpu.D1(4), Block: simgpu.D1(128)}, Cost: simgpu.Cost{FLOPs: 1e6}}
		runs := 0
		fn := func() { runs++ }

		inj.n = 2 // inside the retry budget
		if err := ctx.Dispatch(k, fn, -1); err != nil || runs != 1 {
			t.Fatalf("pool %v: absorbed faults: err %v, closure ran %d times, want once", pool != nil, err, runs)
		}
		if r := rt.Ledger().Snapshot().LaunchRetries; r != 2 {
			t.Fatalf("pool %v: %d launch retries, want 2", pool != nil, r)
		}
		inj.n = 1 << 30 // every attempt fails
		if err := ctx.Dispatch(k, fn, -1); err == nil || runs != 1 {
			t.Fatalf("pool %v: failed launch: err %v, closure ran %d more times, want none", pool != nil, err, runs-1)
		}
		inj.n = 0
		if err := ctx.Dispatch(k, fn, -1); err != nil || runs != 2 {
			t.Fatalf("pool %v: retried launch: err %v, closure ran %d more times, want once", pool != nil, err, runs-1)
		}
		ctx.Compute = false
		if err := ctx.Dispatch(k, fn, -1); err != nil || runs != 2 {
			t.Fatalf("pool %v: timing-only launch: err %v, closure ran %d more times, want none", pool != nil, err, runs-2)
		}
		if err := ctx.Barrier(); err != nil {
			t.Fatal(err)
		}
		if st, err := dev.Stats(); err != nil || st.Launches != 3 {
			t.Fatalf("pool %v: device took %d launches (err %v), want 3", pool != nil, st.Launches, err)
		}
		fw.Close()
	}
}
