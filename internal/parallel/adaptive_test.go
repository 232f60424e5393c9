package parallel

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/hostpool"
	"repro/internal/models"
	"repro/internal/simgpu"
)

// The adaptive-controller soak: drop profiler records (the first
// profiling window is fully corrupted, so every layer starts on a stale
// width-1 fallback plan solved from nothing), let the online controller
// flag the lost profiles, shadow-re-profile, and swap real plans in at
// checkpointed step boundaries — then prove the trained parameters are
// bitwise identical to a non-adaptive serial reference that merely replays
// the recorded width schedule. Width is the entire numeric contract of a
// plan swap: if the schedule replay reproduces the bits, the controller
// changed nothing but concurrency.

type adaptResult struct {
	params [][][]float32 // [replica][param][element]
	events []PlanSwapEvent
	snap   core.Snapshot
}

// runAdaptSoak trains a workload on two devices for `steps` iterations.
// With adaptive=true the online controller runs (and a host pool exercises
// chain concurrency); with adaptive=false the run is the serial reference,
// replaying the given width schedule via InstallPlan before each matching
// iteration. Both arms share fault plans, seeds, and feeders.
func runAdaptSoak(t *testing.T, w *models.Workload, batch, steps int, plans []simgpu.FaultPlan, adaptive bool, replay []PlanSwapEvent) adaptResult {
	t.Helper()
	const nDev = 2
	devs := make([]*simgpu.Device, nDev)
	for i := range devs {
		var opts []simgpu.Option
		if plans != nil {
			opts = append(opts, simgpu.WithInjector(plans[i].Injector()))
		}
		dev, err := simgpu.NewDeviceChecked(simgpu.TeslaP100, opts...)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = dev
	}
	cfg := Config{
		Solver:  chaosSolver(),
		UseGLP:  true,
		Compute: true,
		Seed:    5,
	}
	if adaptive {
		cfg.Adaptive = true
		cfg.HostPool = hostpool.New(4)
	}
	tr, err := NewTrainer(simgpu.NewMachineFromDevices(devs...), func(ctx *dnn.Context) (*dnn.Net, error) {
		return w.Build(ctx, batch, 5)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	feed := workloadFeeder(w, batch, 1000)
	for i := 0; i < steps; i++ {
		// The reference arm applies the adaptive arm's recorded width
		// transitions at the same boundaries — with serial dispatch, so
		// only the width (the numeric contract) is reproduced, never the
		// concurrency.
		for _, ev := range replay {
			if ev.Iter != i {
				continue
			}
			for _, dev := range devs {
				tr.Framework().Runtime(dev).InstallPlan(ev.Key, ev.Streams, true, ev.Fallback, ev.SolvedFrom)
			}
		}
		if _, err := tr.Step(feed); err != nil {
			t.Fatalf("%s step %d failed: %v", w.Name, i, err)
		}
	}

	res := adaptResult{
		events: tr.SwapEvents(),
		snap:   tr.Framework().Runtime(devs[0]).Ledger().Snapshot(),
	}
	for r := 0; r < tr.Replicas(); r++ {
		var ps [][]float32
		for _, p := range tr.Net(r).Params() {
			ps = append(ps, append([]float32(nil), p.Data.Data()...))
		}
		res.params = append(res.params, ps)
	}
	return res
}

// probeWindowRecords measures how many kernel records the first profiling
// window of a clean run collects — the exact fault budget that corrupts
// that window and nothing else.
func probeWindowRecords(t *testing.T, w *models.Workload, batch int) int64 {
	t.Helper()
	clean := runAdaptSoak(t, w, batch, 2, nil, false, nil)
	n := clean.snap.ProfiledKernels
	if n == 0 {
		t.Fatal("probe collected no profiler records")
	}
	return n
}

// TestAdaptivePlanSwapInvariance is the headline adaptive proof on all four
// paper workloads: after a lost profile the controller re-solves plans at
// runtime, and the trained parameters stay bitwise identical to the serial
// reference replaying the same width schedule.
func TestAdaptivePlanSwapInvariance(t *testing.T) {
	cases := []struct {
		name         string
		batch, steps int
	}{
		{"CIFAR10", 4, 6},
		{"Siamese", 4, 6},
		{"CaffeNet", 2, 6}, // ~6 GFLOP per image on the host: keep it small
		{"GoogLeNet", 2, 6},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			w, err := models.Get(c.name)
			if err != nil {
				t.Fatal(err)
			}
			// The lost profile: drop exactly the first profiling
			// window's records on both devices. Collection comes back
			// empty, every layer gets a width-1 fallback plan with
			// SolvedFrom 0, and every layer that then launches a kernel
			// is flagged.
			n := probeWindowRecords(t, w, c.batch)
			plans := make([]simgpu.FaultPlan, 2)
			for d := range plans {
				plans[d] = simgpu.FaultPlan{Seed: 7, DropRecord: 1.0, MaxFaults: n}
			}

			adaptiveArm := runAdaptSoak(t, w, c.batch, c.steps, plans, true, nil)
			if adaptiveArm.snap.DriftEvents == 0 {
				t.Fatal("nothing flagged despite a fully corrupted profiling window")
			}
			if adaptiveArm.snap.Reprofiles == 0 || adaptiveArm.snap.PlanSwaps == 0 {
				t.Fatalf("controller idle: reprofiles=%d swaps=%d",
					adaptiveArm.snap.Reprofiles, adaptiveArm.snap.PlanSwaps)
			}
			widened := false
			for _, ev := range adaptiveArm.events {
				if !ev.Shadow && ev.Streams > 1 {
					widened = true
					break
				}
			}
			if !widened {
				t.Fatalf("no re-solved plan raised its width; events: %v", adaptiveArm.events)
			}
			t.Logf("%s: pinned=%d reprofiles=%d swaps=%d, %d schedule events",
				c.name, adaptiveArm.snap.DriftEvents, adaptiveArm.snap.Reprofiles,
				adaptiveArm.snap.PlanSwaps, len(adaptiveArm.events))

			reference := runAdaptSoak(t, w, c.batch, c.steps, plans, false, adaptiveArm.events)
			if reference.snap.Reprofiles != 0 || reference.snap.PlanSwaps != 0 {
				t.Fatalf("reference arm adapted: reprofiles=%d swaps=%d",
					reference.snap.Reprofiles, reference.snap.PlanSwaps)
			}
			for r := range adaptiveArm.params {
				assertBitwiseEqual(t, c.name+"/adaptive-vs-reference", adaptiveArm.params[r], reference.params[0])
			}
		})
	}
}

// ruleTrainer is a timing-only two-replica adaptive GLP trainer. A non-zero
// fp arms the second device only and the CLI's rollback budget, as
// `glp4nn-train -glp4nn -adapt -devices 2 -compute=false -fault-*` does;
// the zero value is the bare healthy trainer, with no per-step checkpoint.
func ruleTrainer(t *testing.T, net string, batch int, fp simgpu.FaultPlan) (*Trainer, *simgpu.PlanInjector) {
	t.Helper()
	w, err := models.Get(net)
	if err != nil {
		t.Fatal(err)
	}
	var inj *simgpu.PlanInjector
	cfg := Config{Solver: chaosSolver(), UseGLP: true, Seed: 1, Adaptive: true}
	devs := make([]*simgpu.Device, 2)
	for i := range devs {
		var opts []simgpu.Option
		if i == 1 && fp != (simgpu.FaultPlan{}) {
			cfg.HostPool, cfg.StepRetries, cfg.Elastic = hostpool.New(4), 8, true
			inj = fp.Injector()
			opts = append(opts, simgpu.WithInjector(inj))
		}
		if devs[i], err = simgpu.NewDeviceChecked(simgpu.TeslaP100, opts...); err != nil {
			t.Fatal(err)
		}
		devs[i].SetTracing(false)
	}
	tr, err := NewTrainer(simgpu.NewMachineFromDevices(devs...), func(ctx *dnn.Context) (*dnn.Net, error) {
		return w.Build(ctx, batch, 1)
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tr.Close)
	return tr, inj
}

// stepWithPlans runs steps timing-only iterations and returns, for each
// iteration i, every replica's plan table as the boundary before step i saw
// it: the plans a shadow event at Iter i evicted.
func stepWithPlans(t *testing.T, tr *Trainer, steps int) [][]map[string]core.Plan {
	t.Helper()
	var before [][]map[string]core.Plan
	for i := 0; i < steps; i++ {
		var tables []map[string]core.Plan
		for _, dev := range tr.Devices() {
			m := map[string]core.Plan{}
			for _, p := range tr.Framework().Runtime(dev).Plans() {
				m[p.Key] = *p
			}
			tables = append(tables, m)
		}
		before = append(before, tables)
		if _, err := tr.Step(nil); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	return before
}

// faultPinned reports whether the plan is one the runtime pinned in
// reaction to a fault: serial-demoted, or solved from no records.
func faultPinned(p core.Plan) bool { return p.Serial || p.SolvedFrom == 0 }

// TestAdaptiveHealthyRunNeverReprofiles: with no fault, no plan is pinned,
// so -adapt re-profiles nothing — no shadow step, no swap, no checkpoint.
func TestAdaptiveHealthyRunNeverReprofiles(t *testing.T) {
	for _, net := range []string{"CaffeNet", "GoogLeNet"} {
		t.Run(net, func(t *testing.T) {
			tr, _ := ruleTrainer(t, net, 2, simgpu.FaultPlan{})
			stepWithPlans(t, tr, 20)
			if evs := tr.SwapEvents(); len(evs) != 0 {
				t.Errorf("healthy run swapped plans: %v", evs)
			}
			for i, dev := range tr.Devices() {
				if n := tr.Framework().Runtime(dev).Ledger().Snapshot().Reprofiles; n != 0 {
					t.Errorf("replica %d re-profiled %d times", i, n)
				}
			}
		})
	}
}

// TestAdaptiveSyncStormEvictsOnlyPinnedPlans: retried sync faults and
// rolled-back steps change no plan, so every eviction a -fault-sync storm
// causes must have evicted a plan a fault pinned on some replica.
func TestAdaptiveSyncStormEvictsOnlyPinnedPlans(t *testing.T) {
	tr, inj := ruleTrainer(t, "CIFAR10", 8, simgpu.FaultPlan{Seed: 1, Sync: 0.15, MaxFaults: 64})
	before := stepWithPlans(t, tr, 20)
	if inj.Stats().Syncs == 0 {
		t.Fatal("the storm injected no sync fault")
	}
	for _, ev := range tr.SwapEvents() {
		if !ev.Shadow {
			continue
		}
		pinned := false
		for _, plans := range before[ev.Iter] {
			if p, ok := plans[ev.Key]; ok && faultPinned(p) {
				pinned = true
			}
		}
		if !pinned {
			t.Errorf("iter %d evicted %s, pinned on no replica: %v", ev.Iter, ev.Key, before[ev.Iter])
		}
	}
}

// TestAdaptiveHangStormReprofilesEveryDemotion: every plan the watchdog
// demoted to serial is evicted at the very next boundary, unless its key
// already used its DefaultMaxReprofiles re-profiles.
func TestAdaptiveHangStormReprofilesEveryDemotion(t *testing.T) {
	tr, _ := ruleTrainer(t, "CIFAR10", 8, simgpu.FaultPlan{Seed: 1, Hang: 0.01, MaxFaults: 64})
	before := stepWithPlans(t, tr, 20)
	shadows := map[string][]int{} // key → iterations its shadow steps began
	for _, ev := range tr.SwapEvents() {
		if ev.Shadow {
			shadows[ev.Key] = append(shadows[ev.Key], ev.Iter)
		}
	}
	demoted := 0
	for i, tables := range before {
		for _, plans := range tables {
			for key, p := range plans {
				if !p.Serial {
					continue
				}
				demoted++
				used := 0
				for _, it := range shadows[key] {
					if it == i {
						used = -1
						break
					}
					if it < i {
						used++
					}
				}
				if used >= 0 && used < core.DefaultMaxReprofiles {
					t.Errorf("%s serial before step %d, not re-profiled there (%d re-profiles so far)", key, i, used)
				}
			}
		}
	}
	if demoted == 0 {
		t.Fatal("the storm demoted no plan")
	}
}
