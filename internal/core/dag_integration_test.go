package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/dnn"
	"repro/internal/models"
	"repro/internal/simgpu"
)

// trainGoogLeNet trains a few GoogLeNet steps through a fresh GLP4NN
// runtime and returns the final params and the runtime's ledger snapshot.
func trainGoogLeNet(t *testing.T, dag bool, steps int) ([][]float32, Snapshot) {
	t.Helper()
	w, err := models.Get("GoogLeNet")
	if err != nil {
		t.Fatal(err)
	}
	dev := simgpu.NewDevice(simgpu.TeslaP100)
	fw := New()
	defer fw.Close()
	rt := fw.Runtime(dev)
	ctx := dnn.NewContext(rt, 5)
	ctx.Compute = true
	net, err := w.Build(ctx, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	net.EnableDAG(dag)
	feed := w.NewFeeder(2, 6)
	s := dnn.NewSolver(net, ctx, dnn.SolverConfig{BaseLR: 0.001, Momentum: 0.9, WeightDecay: 0.001})
	for i := 0; i < steps; i++ {
		if err := feed(net); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	var out [][]float32
	for _, p := range net.Params() {
		out = append(out, append([]float32(nil), p.Data.Data()...))
	}
	return out, rt.Ledger().Snapshot()
}

// TestDAGRuntimeInvariance runs GoogLeNet's inception branches through the
// operator DAG scheduler on the full GLP4NN runtime: the first iterations
// profile and analyze in exact serial order (DAGReady gates the DAG until
// every plan is cached), later iterations dispatch independent layers
// through concurrent LayerSessions — and the trained parameters stay
// bitwise identical to the serial schedule.
func TestDAGRuntimeInvariance(t *testing.T) {
	const steps = 3 // step 1 profiles, step 2 analyzes, step 3 runs the DAG
	serial, ssnap := trainGoogLeNet(t, false, steps)
	dag, dsnap := trainGoogLeNet(t, true, steps)
	if len(serial) != len(dag) {
		t.Fatalf("param count mismatch: %d vs %d", len(serial), len(dag))
	}
	for i := range serial {
		for j := range serial[i] {
			if math.Float32bits(serial[i][j]) != math.Float32bits(dag[i][j]) {
				t.Fatalf("param %d[%d] differs: serial %v dag %v", i, j, serial[i][j], dag[i][j])
			}
		}
	}
	if ssnap.DAGDispatches != 0 {
		t.Fatalf("serial run charged %d DAG dispatches", ssnap.DAGDispatches)
	}
	if dsnap.DAGDispatches == 0 {
		t.Fatal("DAG run never dispatched through a concurrent LayerSession")
	}
	if dsnap.DAGDispatches > dsnap.Dispatches {
		t.Fatalf("DAGDispatches %d exceeds Dispatches %d (must be a subset)",
			dsnap.DAGDispatches, dsnap.Dispatches)
	}
}

// TestDAGReadyGate covers the gate directly: unprofiled keys are not
// ready; once a profiling window closes over them, DAGReady collects,
// analyzes on the spot and reports ready.
func TestDAGReadyGate(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100)
	fw := New()
	defer fw.Close()
	rt := fw.Runtime(dev)

	if rt.DAGReady([]string{"conv/fwd"}) {
		t.Fatal("unseen key reported ready")
	}
	// Sighting 1: opens the profiling window and records the kernels.
	rt.BeginLayer("conv/fwd")
	if err := rt.Launch(testKernel("sgemm", "s0"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := dev.Synchronize(); err != nil {
		t.Fatal(err)
	}
	// The gate closes the window itself — no second serial sighting needed.
	if !rt.DAGReady([]string{"conv/fwd"}) {
		t.Fatal("profiled key not ready")
	}
	if _, ok := rt.Analyzer().Cached("conv/fwd"); !ok {
		t.Fatal("DAGReady did not cache the analyzed plan")
	}
	// A mix with an unseen key stays gated.
	if rt.DAGReady([]string{"conv/fwd", "ip/fwd"}) {
		t.Fatal("mixed ready/unseen keys reported ready")
	}
}

// TestLayerSessionNeverProfiles: a forked session resolves cached plans
// only; an unknown key degrades to width 1 without opening a profiling
// window or disturbing the runtime's serial state.
func TestLayerSessionNeverProfiles(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100)
	fw := New()
	defer fw.Close()
	rt := fw.Runtime(dev)

	s, ok := rt.ForkLayerSession().(dnn.Launcher)
	if !ok {
		t.Fatalf("forked session %T does not implement dnn.Launcher", rt.ForkLayerSession())
	}
	s.BeginLayer("mystery/fwd")
	if w := s.Width(); w != 1 {
		t.Fatalf("unplanned session width = %d, want 1", w)
	}
	if err := s.Launch(testKernel("k", "x"), 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	// The session must not have opened a profiling window for the key.
	if rt.DAGReady([]string{"mystery/fwd"}) {
		t.Fatal("session launch made an unprofiled key ready")
	}
	// Unplanned launches ride the default stream: no round-robin decision,
	// nothing charged to the dispatch counters (same as the serial path).
	snap := rt.Ledger().Snapshot()
	if snap.DAGDispatches != 0 {
		t.Fatalf("DAGDispatches = %d, want 0 for a default-stream launch", snap.DAGDispatches)
	}
}

// TestLayerConcurrencyCap: the cap divides the device's concurrent-kernel
// budget by the widest cached plan and never drops below 1.
func TestLayerConcurrencyCap(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100)
	fw := New()
	defer fw.Close()
	rt := fw.Runtime(dev)

	budget := dev.Spec().MaxConcurrentKernels()
	if got := rt.LayerConcurrencyCap(); got != budget {
		t.Fatalf("cap with no plans = %d, want the full budget %d", got, budget)
	}
	// Profile and analyze one layer; the cap shrinks by its width.
	rt.BeginLayer("conv/fwd")
	for c := 0; c < 4; c++ {
		if err := rt.Launch(testKernel("sgemm", "s"), c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := dev.Synchronize(); err != nil {
		t.Fatal(err)
	}
	if !rt.DAGReady([]string{"conv/fwd"}) {
		t.Fatal("not ready after profiling")
	}
	plan, ok := rt.Analyzer().Cached("conv/fwd")
	if !ok {
		t.Fatal("no cached plan")
	}
	want := budget
	if !plan.Serial && plan.Streams > 1 {
		want = budget / plan.Streams
	}
	if want < 1 {
		want = 1
	}
	if got := rt.LayerConcurrencyCap(); got != want {
		t.Fatalf("cap = %d, want %d (plan width %d)", got, want, plan.Streams)
	}
}

// TestRootAndForkedSessionAgree: the runtime's own launcher methods and a
// forked session are the same launch state, so for one planned key — at a
// full and at a clamped budget grant — they route every chain to the same
// stream and stamp the same "<key>|<tag>"; only the ledger's DAG counter
// tells them apart.
func TestRootAndForkedSessionAgree(t *testing.T) {
	type placed struct {
		stream int
		tag    string
	}
	const key, width, chains = "conv/fwd", 4, 9
	for _, c := range []struct {
		name string
		held func(budget int) int // units another axis holds during the layer
	}{
		{"full grant", func(int) int { return 0 }},
		{"grant clamped to 2", func(budget int) int { return budget - 2 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dev := simgpu.NewDevice(simgpu.TeslaP100)
			dev.SetTracing(true)
			fw := New()
			defer fw.Close()
			rt := fw.Runtime(dev)
			rt.InstallPlan(key, width, false, false, 0)
			if held := c.held(dev.Spec().MaxConcurrentKernels()); held > 0 {
				rt.Budget().Acquire(held)
			}

			layer := func(l dnn.Launcher) []placed {
				if err := dev.ResetClocks(); err != nil {
					t.Fatal(err)
				}
				l.BeginLayer(key)
				if l.Width() != width {
					t.Fatalf("width %d, want %d", l.Width(), width)
				}
				for chain := -1; chain < chains; chain++ {
					if err := l.Launch(testKernel("sgemm", "n"), chain); err != nil {
						t.Fatal(err)
					}
				}
				if err := l.Sync(); err != nil {
					t.Fatal(err)
				}
				recs, err := dev.Trace()
				if err != nil {
					t.Fatal(err)
				}
				out := make([]placed, len(recs))
				for _, r := range recs {
					out[r.Seq-recs[0].Seq] = placed{r.StreamID, r.Tag}
				}
				return out
			}
			root := layer(rt)
			before := rt.Ledger().Snapshot()
			fork := layer(rt.ForkLayerSession().(dnn.Launcher))
			after := rt.Ledger().Snapshot()

			if len(root) != chains+1 || len(fork) != len(root) {
				t.Fatalf("traced %d root and %d forked launches, want %d each", len(root), len(fork), chains+1)
			}
			streams := map[int]bool{}
			for i := range root {
				if root[i] != fork[i] {
					t.Errorf("chain %d: root placed %+v, fork %+v", i-1, root[i], fork[i])
				}
				if root[i].tag != key+"|n" {
					t.Errorf("chain %d: tag %q", i-1, root[i].tag)
				}
				streams[root[i].stream] = true
			}
			if len(streams) < 2 {
				t.Errorf("chains never left one stream: %v", streams)
			}
			if before.Dispatches != chains || before.DAGDispatches != 0 {
				t.Errorf("root session charged %d dispatches, %d DAG; want %d, 0", before.Dispatches, before.DAGDispatches, chains)
			}
			if d, g := after.Dispatches-before.Dispatches, after.DAGDispatches; d != chains || g != chains {
				t.Errorf("forked session charged %d dispatches, %d DAG; want %d each", d, g, chains)
			}
		})
	}
}

// TestPlanResolutionPathsAgree: DAGReady, FinalizePlans and each key's own
// second-sighting BeginLayer are three callers of one plan lookup, so over
// the same profiling window they leave the same plan cache and charge the
// same number of collections and analyses.
func TestPlanResolutionPathsAgree(t *testing.T) {
	keys := []string{"conv/fwd", "ip/fwd", "host/fwd"} // host/fwd launches nothing
	type outcome struct {
		plans    []Plan
		analyzed int64
		profiled int64
	}
	run := func(resolve func(rt *Runtime)) outcome {
		dev := simgpu.NewDevice(simgpu.TeslaP100)
		fw := New()
		defer fw.Close()
		rt := fw.Runtime(dev)
		for i, key := range keys[:2] {
			rt.BeginLayer(key)
			for c := 0; c < 4*(i+1); c++ {
				if err := rt.Launch(testKernel("sgemm", "s"), c); err != nil {
					t.Fatal(err)
				}
			}
			if err := rt.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		rt.BeginLayer(keys[2])
		resolve(rt)
		var out outcome
		for _, p := range rt.Plans() {
			// SolveTime is host wall time; everything else is decided by the profile.
			out.plans = append(out.plans, Plan{Key: p.Key, Streams: p.Streams, Serial: p.Serial, Fallback: p.Fallback, SolvedFrom: p.SolvedFrom})
		}
		snap := rt.Ledger().Snapshot()
		out.analyzed, out.profiled = snap.AnalyzedLayers, snap.ProfiledKernels
		return out
	}
	want := run(func(rt *Runtime) {
		for _, key := range keys {
			rt.BeginLayer(key)
		}
	})
	if len(want.plans) != len(keys) || want.analyzed != int64(len(keys)) || want.profiled != 12 {
		t.Fatalf("second sightings: %d plans, %d analyses, %d profiled kernels; want %d, %d, 12",
			len(want.plans), want.analyzed, want.profiled, len(keys), len(keys))
	}
	for name, resolve := range map[string]func(rt *Runtime){
		"DAGReady": func(rt *Runtime) {
			if !rt.DAGReady(keys) {
				t.Error("DAGReady: profiled window not ready")
			}
		},
		"FinalizePlans": func(rt *Runtime) { rt.FinalizePlans() },
	} {
		got := run(resolve)
		if got.analyzed != want.analyzed || got.profiled != want.profiled {
			t.Errorf("%s: %d analyses, %d profiled kernels; second sightings charged %d, %d",
				name, got.analyzed, got.profiled, want.analyzed, want.profiled)
		}
		if len(got.plans) != len(want.plans) {
			t.Fatalf("%s: %d plans, want %d", name, len(got.plans), len(want.plans))
		}
		for i := range want.plans {
			if !reflect.DeepEqual(got.plans[i], want.plans[i]) {
				t.Errorf("%s: plan %+v, second sighting cached %+v", name, got.plans[i], want.plans[i])
			}
		}
	}
}

// TestCloseDetachesListener: a device may outlive the framework built on
// it; after Close the dead runtime's listener is gone from the device, so a
// kernel overstaying the watchdog limit there no longer reaches its ledger.
func TestCloseDetachesListener(t *testing.T) {
	dev := simgpu.NewDevice(simgpu.TeslaP100, simgpu.WithInjector(
		simgpu.FaultPlan{Seed: 5, Hang: 1}.Injector()))
	hang := func(l dnn.Launcher) {
		t.Helper()
		if err := l.Launch(testKernel("slow", ""), -1); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	fw := New()
	dead := fw.Runtime(dev)
	dead.SetAdaptive()
	hang(dead)
	trips := dead.Ledger().Snapshot().WatchdogTrips
	if trips == 0 {
		t.Fatal("test needs a kernel that trips the live runtime's watchdog")
	}
	fw.Close()

	fw2 := New()
	defer fw2.Close()
	live := fw2.Runtime(dev)
	hang(live)
	if live.Ledger().Snapshot().WatchdogTrips == 0 {
		t.Error("the live runtime's watchdog did not trip")
	}
	if got := dead.Ledger().Snapshot().WatchdogTrips; got != trips {
		t.Errorf("closed runtime's WatchdogTrips moved %d → %d", trips, got)
	}
}
