package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dnn"
	"repro/internal/models"
	"repro/internal/simgpu"
)

// simRoundsPerSecond: a round of 24 arm-steps takes 0.6-0.75 s on the
// reference box.
const simRoundsPerSecond = 1.2

// The Fig. 7 grid.
var (
	simNets = []struct {
		name  string
		batch int
	}{{"CIFAR10", 100}, {"Siamese", 64}, {"GoogLeNet", 32}, {"CaffeNet", 32}}
	simDevices = []string{"K40C", "P100", "TitanXP"}
)

// simArm is one launcher arm of one grid cell: a timing-only solver over
// the cell's net on its own simulated device.
type simArm struct {
	net, device string
	batch       int
	glp         bool
	dev         *simgpu.Device
	fw          *core.Framework
	rt          *core.Runtime
	solver      *dnn.Solver
	tl          *traceLauncher
	ra          *recordAgg

	warm     []time.Duration
	virt     []time.Duration
	wall     time.Duration
	launches int64
	mallocs  uint64 // of one step, taken after the window
	before   counters
	last     simgpu.Stats
}

func (a *simArm) close() {
	if a.fw != nil {
		a.fw.Close()
	}
}

// step is one timing-only training iteration (forward + backward + update)
// and returns its simulated and host time.
func (a *simArm) step() (virt, wall time.Duration, err error) {
	if err = a.dev.ResetClocks(); err != nil {
		return
	}
	start := time.Now()
	if _, err = a.solver.Step(); err != nil {
		return
	}
	if a.tl != nil {
		a.tl.endStep()
	}
	if virt, err = syncVirtual(a.dev); err != nil {
		return
	}
	wall = time.Since(start)
	if a.ra != nil {
		a.ra.foldStep()
	}
	return
}

func newSimArm(net *dnn.Net, name, device string, batch int, glp, traced bool, seed int64) (*simArm, error) {
	spec, ok := simgpu.DeviceByName(device)
	if !ok {
		return nil, fmt.Errorf("unknown device %q", device)
	}
	a := &simArm{net: name, device: device, batch: batch, glp: glp}
	a.dev = simgpu.NewDevice(spec, simgpu.WithTraceLimit(1))
	var l dnn.Launcher = dnn.SerialLauncher{Dev: a.dev}
	if glp {
		a.fw = core.New()
		a.rt = a.fw.Runtime(a.dev)
		l = a.rt
	}
	ctx := dnn.NewContext(l, seed)
	ctx.Compute = false
	if traced {
		var err error
		if a.tl, err = installTraceLauncher(ctx, net.DAGEnabled(), !glp); err != nil {
			return nil, err
		}
		a.ra = newRecordAgg()
		a.dev.Subscribe(a.ra.observe)
	}
	a.solver = dnn.NewSolver(net, ctx, dnn.CIFAR10QuickSolver())
	warm := warmupSteps
	if !glp {
		warm = 2 // nothing to profile; the second step is already steady
	}
	for i := 0; i < warm; i++ {
		v, _, err := a.step()
		if err != nil {
			return nil, fmt.Errorf("%s on %s warm-up: %w", name, device, err)
		}
		a.warm = append(a.warm, v)
	}
	return a, nil
}

// sameKernels reports whether the two arms launched the same multiset of
// (kernel name, FLOPs), apart from the gradient-partial folds: a layer
// launches one axpy_fold per stream of its plan, so the GLP4NN arm has at
// least as many of each as the naive arm.
func sameKernels(naive, glp map[kernelSig]int64) bool {
	for sig, c := range glp {
		fold := strings.HasPrefix(sig.name, "axpy_fold")
		if (!fold && naive[sig] != c) || (fold && naive[sig] > c) {
			return false
		}
	}
	for sig := range naive {
		if _, ok := glp[sig]; !ok {
			return false
		}
	}
	return true
}

func runSimPaper(cfg runConfig) (*result, error) {
	res := newResult(cfg)
	m := res.Metrics
	traced := cfg.Mode == modeTraced
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var arms []*simArm
	defer func() {
		for _, a := range arms {
			a.close()
		}
	}()
	var buildWall time.Duration
	for _, n := range simNets {
		batch := n.batch
		if cfg.Quick {
			batch = 4
		}
		w, err := models.Get(n.name)
		if err != nil {
			return nil, err
		}
		// Each net is built once and reused across devices and arms, so
		// both arms of a cell launch exactly the same kernels.
		bctx := dnn.NewContext(dnn.HostLauncher{}, cfg.Seed)
		bctx.Compute = false
		s := tr.begin("models.build", -1, -1)
		t0 := time.Now()
		net, err := w.Build(bctx, batch, cfg.Seed)
		buildWall += time.Since(t0)
		tr.end(s)
		if err != nil {
			return nil, err
		}
		for _, d := range simDevices {
			for _, glp := range []bool{false, true} {
				a, err := newSimArm(net, n.name, d, batch, glp, traced, cfg.Seed)
				if err != nil {
					return nil, err
				}
				arms = append(arms, a)
			}
		}
	}
	m["models.build.wall_ms"] = ms(buildWall)
	m["setup_s"] = time.Since(cfg.Start).Seconds()

	// Allocations per step, arm by arm, from one round ahead of the
	// timed window (a MemStats read stops the world).
	var roundMallocs uint64
	for _, a := range arms {
		m0 := mallocs()
		if _, _, err := a.step(); err != nil {
			return nil, err
		}
		a.mallocs = mallocs() - m0
		roundMallocs += a.mallocs
	}

	runtime.GC()
	for _, a := range arms {
		if a.tl != nil {
			a.tl.reset()
			a.ra.reset()
		}
		st, err := a.dev.Stats()
		if err != nil {
			return nil, err
		}
		a.before = counters{dev: st}
		if a.rt != nil {
			a.before.ledger = a.rt.Ledger().Snapshot()
		}
	}
	var roundMs []float64
	var window time.Duration
	rounds := 0
	for want := stepCount(cfg, simRoundsPerSecond); rounds < want; rounds++ {
		root := tr.begin("bench.round", -1, rounds)
		var round time.Duration
		for _, a := range arms {
			s := tr.begin("dnn.step", root, rounds)
			v, wall, err := a.step()
			tr.end(s)
			res.Attempted++
			if err != nil {
				res.Failed++
				res.check("simulated-steps", false, "%s on %s: %v", a.net, a.device, err)
				return res, nil
			}
			a.virt = append(a.virt, v)
			a.wall += wall
			round += wall
		}
		tr.end(root)
		window += round
		roundMs = append(roundMs, ms(round)/float64(len(arms)))
	}
	for _, a := range arms {
		var err error
		if a.last, err = a.dev.Stats(); err != nil {
			return nil, err
		}
		a.launches = a.last.Launches - a.before.dev.Launches
	}
	var speedups, amort, steady, bounds []float64
	var led ledgerAgg
	var wallNaive, wallGLP time.Duration
	var launchAll, launchNaive, launchGLP int64
	var allocNaive, allocGLP uint64
	var samples int
	var busy, conc, flops, bytes, syncs, sgemmCalls, selfMs, jitter float64
	var lost int64
	for i := 0; i < len(arms); i += 2 {
		naive, glp := arms[i], arms[i+1]
		cell := naive.net + "/" + naive.device
		ns, nj := steadyOf(res, "steady-virtual:"+cell+":naive", naive.virt, 0)
		gs, gj := steadyOf(res, "steady-virtual:"+cell+":glp4nn", glp.virt, 0)
		jitter = math.Max(jitter, math.Max(nj, gj))
		ga := amortized(glp.warm, gs)
		speedups = append(speedups, float64(ns)/float64(ga))
		amort = append(amort, ms(ga))
		steady = append(steady, ms(gs))

		// Both arms must do the same work. GLP4NN at width > 1 adds only
		// more axpy folds of its per-stream gradient partials, a sliver of
		// FLOPs.
		perStepN := naive.launches / int64(rounds)
		perStepG := glp.launches / int64(rounds)
		extra := glp.last.FLOPsRetired - naive.last.FLOPsRetired
		sameWork := perStepG >= perStepN && extra >= -1e-9*naive.last.FLOPsRetired && extra <= 0.01*naive.last.FLOPsRetired
		res.check("same-work:"+cell, sameWork, "naive %d launches %.6g FLOPs, glp4nn %d launches %.6g FLOPs",
			perStepN, naive.last.FLOPsRetired, perStepG, glp.last.FLOPsRetired)
		if traced {
			res.check("same-kernel-multiset:"+cell, sameKernels(naive.tl.multiset, glp.tl.multiset),
				"beyond gradient-partial folds, the arms launched different (kernel, FLOPs) multisets")
			bounds = append(bounds, naive.ra.parallelBound())
			conc += float64(glp.ra.busy) / (float64(rounds) * float64(glp.last.DeviceTime))
			sgemmCalls += float64(naive.tl.families()["sgemm"].Calls+glp.tl.families()["sgemm"].Calls) / float64(rounds)
			selfMs += ms(naive.wall-naive.tl.inCalls+glp.wall-glp.tl.inCalls) / float64(rounds)
		}
		led.add(glp.rt, glp.before.ledger, glp.rt.Ledger().Snapshot(), rounds, gs)

		spec := glp.dev.Spec()
		busy += 100 * glp.last.ThreadNSIntegral / (float64(spec.SMCount*spec.MaxThreadsPerSM) * float64(glp.last.DeviceTime))
		for _, a := range []*simArm{naive, glp} {
			launchAll += a.launches
			samples += a.batch
			flops += a.last.FLOPsRetired
			bytes += a.last.BytesRetired
			// The closing Stats read synchronizes once beyond the steps' own.
			syncs += float64(a.last.Syncs-a.before.dev.Syncs-1) / float64(rounds)
			lost += a.last.RecordsLost
		}
		wallNaive += naive.wall
		wallGLP += glp.wall
		launchNaive += naive.launches
		launchGLP += glp.launches
		allocNaive += naive.mallocs
		allocGLP += glp.mallocs
	}
	cells := float64(len(arms) / 2)
	nArms := float64(len(arms))
	m["glp_speedup_x"] = geomean(speedups)
	m["step_virtual_ms"] = geomean(amort)
	m["simgpu.steady_step_virtual_ms"] = geomean(steady)
	m["simgpu.steady_step_jitter_pct"] = jitter
	// Sustained rates over the whole window; the step time is host ms per
	// simulated step in the median round (and in the fastest one).
	m["sim_launches_per_s"] = float64(launchAll) / window.Seconds()
	m["step_wall_ms_p50"] = median(roundMs)
	m["dnn.step.wall_ms_min"], _ = minMax(roundMs)
	m["samples_per_s"] = float64(samples*rounds) / window.Seconds()
	m["allocs_per_step"] = float64(roundMallocs) / nArms
	m["simgpu.launches_per_step"] = float64(launchAll) / float64(rounds) / nArms
	m["simgpu.syncs_per_step"] = syncs / nArms
	m["simgpu.flops_per_step"] = flops / nArms
	m["simgpu.bytes_per_step"] = bytes / nArms
	m["simgpu.sm_busy_pct"] = busy / cells
	m["simgpu.records_lost"] = float64(lost)
	hostNaive := float64(wallNaive.Microseconds()) / float64(launchNaive)
	m["simgpu.host_us_per_launch"] = hostNaive
	m["core.runtime.host_us_per_launch_delta"] = float64(wallGLP.Microseconds())/float64(launchGLP) - hostNaive
	perLaunchNaive := float64(allocNaive) / (float64(launchNaive) / float64(rounds))
	m["simgpu.allocs_per_launch"] = perLaunchNaive
	m["core.allocs_per_launch_delta"] = float64(allocGLP)/(float64(launchGLP)/float64(rounds)) - perLaunchNaive
	led.emit(res)
	if traced {
		m["simgpu.parallel_bound_x"] = geomean(bounds)
		m["simgpu.concurrency_mean"] = conc / cells
		m["kernels.sgemm.calls"] = sgemmCalls / nArms
		m["dnn.self.wall_ms"] = selfMs / nArms
		var rows []keyRow
		for _, a := range arms {
			arm := "naive"
			if a.glp {
				arm = "glp4nn"
			}
			for _, r := range keyRows(a.tl, a.ra) {
				r.Key = a.net + "/" + a.device + "/" + arm + ":" + r.Key
				rows = append(rows, r)
			}
		}
		path, err := writeTraceFile(cfg.OutDir, cfg.Workload, cfg.Seed, tr, rows)
		if err != nil {
			return nil, err
		}
		res.TraceFile = path
	}
	return res, nil
}
