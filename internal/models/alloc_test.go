package models

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/simgpu"
)

// stepAllocCeiling bounds the objects a warm training step allocates. Every
// layer builds its launch sites once and the launch path allocates nothing:
// a warm step allocates none today, and the slack is for an arena slab the
// garbage collector reclaimed between steps, never one per launch.
const stepAllocCeiling = 2

// TestSolverStepSteadyStateAllocs is a warm training step's allocation
// ceiling (part of `make alloc`): the timing-only Solver.Step of each paper
// net at its sim-paper batch on a P100, naive and through core.Runtime —
// the loop the benchmark's sim-paper workload times — and a real-math
// CIFAR10 b4 step on both launchers.
func TestSolverStepSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is skewed by race instrumentation")
	}
	check := func(what string, step func() error) {
		t.Helper()
		// Profile, analyse, first steady step.
		for i := 0; i < 3; i++ {
			if err := step(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := step(); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		})
		t.Logf("%s: %.1f allocations per step", what, allocs)
		if allocs > stepAllocCeiling {
			t.Errorf("%s: a warm step allocates %.1f objects, want at most %d", what, allocs, stepAllocCeiling)
		}
	}
	arms := []string{"naive", "glp4nn"}
	for _, n := range fig7Nets {
		net := buildTimingOnly(t, n.name, n.batch)
		for _, arm := range arms {
			_, step := timingOnlyArm(t, net, simgpu.TeslaP100, arm == "glp4nn", simgpu.WithTraceLimit(1))
			check(n.name+"/timing-only/"+arm, step)
		}
	}

	w, err := Get("CIFAR10")
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range arms {
		dev := simgpu.NewDevice(simgpu.TeslaP100, simgpu.WithTraceLimit(1))
		var l dnn.Launcher = dnn.SerialLauncher{Dev: dev}
		if arm == "glp4nn" {
			fw := core.New()
			defer fw.Close()
			l = fw.Runtime(dev)
		}
		ctx := dnn.NewContext(l, 1)
		net, err := w.Build(ctx, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.NewFeeder(4, 1)(net); err != nil {
			t.Fatal(err)
		}
		solver := dnn.NewSolver(net, ctx, dnn.CIFAR10QuickSolver())
		check("CIFAR10/real-math/"+arm, func() error {
			if _, err := solver.Step(); err != nil {
				return err
			}
			_, err := dev.Synchronize()
			return err
		})
	}
}
