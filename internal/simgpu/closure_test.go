package simgpu_test

import (
	"testing"

	"repro/internal/dnn"
	"repro/internal/simgpu"
)

// The device runs no host math: a kernel's closure runs in dnn.Context's
// Dispatch, after the device accepted the launch. These tests hold that
// contract on a bare device behind the naive-Caffe launcher.

func closureKernel(name string) *simgpu.Kernel {
	return &simgpu.Kernel{
		Name:   name,
		Config: simgpu.LaunchConfig{Grid: simgpu.D1(1), Block: simgpu.D1(64)},
		Cost:   simgpu.Cost{FLOPs: 1000},
	}
}

func TestHostClosureRunsOnceAtLaunch(t *testing.T) {
	d := simgpu.NewDevice(simgpu.TeslaP100)
	ctx := dnn.NewContext(dnn.SerialLauncher{Dev: d}, 1)
	n := 0
	if err := ctx.Dispatch(closureKernel("fn"), func() { n++ }, 0); err != nil {
		t.Fatalf("Dispatch: %v", err)
	}
	if n != 1 {
		t.Fatalf("closure ran %d times before sync, want 1 (eager)", n)
	}
	recs, err := d.Trace()
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if len(recs) != 1 || recs[0].Name != "fn" {
		t.Fatalf("device recorded %v, want one fn launch", recs)
	}
	if n != 1 {
		t.Fatalf("closure ran %d times after sync, want 1", n)
	}
}

// TestInjectedLaunchFailureSkipsClosure: a failed launch must not execute
// the kernel's host math — retried launches would otherwise run
// non-idempotent kernels twice and break convergence invariance.
func TestInjectedLaunchFailureSkipsClosure(t *testing.T) {
	d := simgpu.NewDevice(simgpu.TeslaP100, simgpu.WithInjector(simgpu.FaultPlan{Seed: 3, Launch: 1, MaxFaults: 1}.Injector()))
	ctx := dnn.NewContext(dnn.SerialLauncher{Dev: d}, 1)
	runs := 0
	k := closureKernel("fn")
	fn := func() { runs++ }
	if err := ctx.Dispatch(k, fn, 0); err == nil {
		t.Fatal("first launch should fail")
	}
	if runs != 0 {
		t.Fatalf("closure ran %d times on a failed launch", runs)
	}
	if err := ctx.Dispatch(k, fn, 0); err != nil {
		t.Fatalf("retry after budget: %v", err)
	}
	if runs != 1 {
		t.Fatalf("closure ran %d times after one successful launch", runs)
	}
}
