package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/simgpu"
)

// adaptiveRuntime is a fresh P100 runtime with re-profiling armed.
func adaptiveRuntime(t *testing.T) *Runtime {
	t.Helper()
	fw := New()
	t.Cleanup(fw.Close)
	rt := fw.Runtime(simgpu.NewDevice(simgpu.TeslaP100))
	rt.SetAdaptive()
	return rt
}

// runLayer runs one invocation of key through the root session: kernels
// chain launches (none for a pure-host layer) and the layer barrier.
func runLayer(t *testing.T, rt *Runtime, key string, kernels int) {
	t.Helper()
	rt.BeginLayer(key)
	for c := 0; c < kernels; c++ {
		if err := rt.Launch(testKernel("sgemm", ""), c); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Sync(); err != nil {
		t.Fatal(err)
	}
}

func wantFlagged(t *testing.T, rt *Runtime, want ...string) {
	t.Helper()
	if got := rt.StepBoundary(); !reflect.DeepEqual(got, want) {
		t.Fatalf("StepBoundary = %v, want %v", got, want)
	}
}

// TestReprofileLostProfile: a plan solved from no records is a lost profile
// once its layer completes a kernel — flagged at the boundary after the
// layer ran, and not at a boundary it sat out.
func TestReprofileLostProfile(t *testing.T) {
	rt := adaptiveRuntime(t)
	rt.InstallPlan("conv1/fwd", 1, false, true, 0)
	wantFlagged(t, rt) // has not run since the last boundary
	runLayer(t, rt, "conv1/fwd", 2)
	wantFlagged(t, rt, "conv1/fwd")
	wantFlagged(t, rt) // the boundary drained what ran
}

// TestReprofileSkipsPureHostLayer: a layer that never launches a kernel has
// an honest empty profile; its zero-record plan is never flagged.
func TestReprofileSkipsPureHostLayer(t *testing.T) {
	rt := adaptiveRuntime(t)
	rt.InstallPlan("loss/fwd", 1, false, true, 0)
	for i := 0; i < 2*DefaultMaxReprofiles; i++ {
		runLayer(t, rt, "loss/fwd", 0)
		wantFlagged(t, rt)
	}
}

// TestReprofileFlagsSerialPlan: a serial-demoted plan is flagged whether or
// not its layer ran, evicted by ScheduleReprofile, and not flagged again
// while its re-profile is in flight. An unarmed runtime flags nothing.
func TestReprofileFlagsSerialPlan(t *testing.T) {
	fw := New()
	defer fw.Close()
	unarmed := fw.Runtime(simgpu.NewDevice(simgpu.TeslaP100))
	unarmed.InstallPlan("conv2/fwd", 4, true, false, time.Millisecond)
	wantFlagged(t, unarmed)

	rt := adaptiveRuntime(t)
	rt.InstallPlan("conv2/fwd", 4, true, false, time.Millisecond)
	wantFlagged(t, rt, "conv2/fwd")
	if n := rt.ScheduleReprofile([]string{"conv2/fwd", "unknown/fwd"}); n != 1 {
		t.Fatalf("ScheduleReprofile evicted %d keys, want 1", n)
	}
	runLayer(t, rt, "conv2/fwd", 4) // the shadow step: profiling again
	wantFlagged(t, rt)
	if s := rt.Ledger().Snapshot(); s.DriftEvents != 1 || s.Reprofiles != 1 {
		t.Fatalf("ledger flagged=%d reprofiles=%d, want 1 and 1", s.DriftEvents, s.Reprofiles)
	}
}

// TestReprofileSkipsSolvedPlan: a plan solved from real records is the
// paper's plan — never flagged, however wide, however long it runs, even
// when the MILP fell back to width 1.
func TestReprofileSkipsSolvedPlan(t *testing.T) {
	rt := adaptiveRuntime(t)
	rt.InstallPlan("conv3/fwd", 4, false, false, time.Millisecond)
	rt.InstallPlan("fc6/fwd", 1, false, true, time.Microsecond)
	for i := 0; i < 2*DefaultMaxReprofiles; i++ {
		runLayer(t, rt, "conv3/fwd", 8)
		runLayer(t, rt, "fc6/fwd", 1)
		wantFlagged(t, rt)
	}
}

// TestReprofileConcurrentWithLaunches: the listener notes keys under the
// device lock while boundaries drain them; every layer that ran is flagged
// at some boundary. Run under -race.
func TestReprofileConcurrentWithLaunches(t *testing.T) {
	rt := adaptiveRuntime(t)
	keys := []string{"a/fwd", "b/fwd", "c/fwd"}
	for _, k := range keys {
		rt.InstallPlan(k, 2, false, true, 0)
	}
	var wg sync.WaitGroup
	for _, k := range keys {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			s := rt.ForkLayerSession().(*LayerSession)
			for i := 0; i < 50; i++ {
				s.BeginLayer(k)
				if err := s.Launch(testKernel("sgemm", ""), i); err != nil {
					t.Error(err)
					return
				}
				if err := s.Sync(); err != nil {
					t.Error(err)
					return
				}
			}
		}(k)
	}
	flagged := map[string]bool{}
	for i := 0; i < 50; i++ {
		for _, k := range rt.StepBoundary() {
			flagged[k] = true
		}
	}
	wg.Wait()
	for _, k := range rt.StepBoundary() {
		flagged[k] = true
	}
	if len(flagged) != len(keys) {
		t.Fatalf("flagged %v, want every one of %v", flagged, keys)
	}
}

// TestReprofileCapHolds: a key whose fault recurs after every re-profile is
// flagged exactly DefaultMaxReprofiles times and then keeps its pinned plan.
func TestReprofileCapHolds(t *testing.T) {
	rt := adaptiveRuntime(t)
	flags := 0
	for i := 0; i < 3*DefaultMaxReprofiles; i++ {
		// The re-solved plan is demoted again, as a recurring hang would.
		if _, ok := rt.Analyzer().Cached("conv4/fwd"); !ok {
			rt.InstallPlan("conv4/fwd", 4, true, false, time.Millisecond)
		}
		if got := rt.StepBoundary(); len(got) > 0 {
			flags++
			rt.ScheduleReprofile(got)
		}
	}
	if flags != DefaultMaxReprofiles {
		t.Fatalf("flagged %d times, want the cap %d", flags, DefaultMaxReprofiles)
	}
	if p, ok := rt.Analyzer().Cached("conv4/fwd"); !ok || !p.Serial {
		t.Fatalf("capped key lost its pinned plan: %+v, %v", p, ok)
	}
	if s := rt.Ledger().Snapshot(); s.Reprofiles != DefaultMaxReprofiles {
		t.Fatalf("ledger reprofiles=%d, want %d", s.Reprofiles, DefaultMaxReprofiles)
	}
}
