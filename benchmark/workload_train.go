package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/simgpu"
)

// warmUp runs profile → analyse → first steady step and records each
// step's simulated time (the collection step carries T_p and T_a).
func (r *trainRig) warmUp(w *window) error {
	for i := 0; i < warmupSteps; i++ {
		s, err := r.step()
		if err != nil {
			return fmt.Errorf("warm-up step %d: %w", i, err)
		}
		w.warm = append(w.warm, s.virtual)
	}
	return nil
}

// counters is what is read on both sides of a measured window.
type counters struct {
	ledger core.Snapshot
	dev    simgpu.Stats
}

func (r *trainRig) counters() (counters, error) {
	st, err := r.dev.Stats()
	if err != nil {
		return counters{}, err
	}
	return counters{ledger: r.rt.Ledger().Snapshot(), dev: st}, nil
}

// measure runs the window: n steps, then the param hash. A failing step is
// counted and ends the window (the rig's state is undefined after it).
func (r *trainRig) measure(w *window, n int) (before, after counters, err error) {
	runtime.GC()
	if r.tl != nil {
		r.tl.reset()
	}
	if r.ra != nil {
		r.ra.reset()
	}
	if before, err = r.counters(); err != nil {
		return
	}
	m0 := mallocs()
	for len(w.steps) < n {
		s, serr := r.step()
		if serr != nil {
			w.failed++
			err = serr
			return
		}
		w.steps = append(w.steps, s)
	}
	w.mallocs = mallocs() - m0
	w.hash = paramHash(r.net)
	after, err = r.counters()
	return
}

// ledgerAgg reports GLP4NN's own cost (paper Table 6, Fig. 10) and the
// plans it chose, summed over the runtimes of a workload (one per GPU on
// the real-math workloads, one per GLP4NN arm on sim-paper). Per-step and
// percentage figures are means over the runtimes.
type ledgerAgg struct {
	tp, ta                time.Duration
	kernels, layers, mem  int64
	widthSum, widthMax    int
	plans, runtimes       int
	badWidth              string
	tsMs, disp, dagDisp   float64
	overheadPct           float64
	recoveries, throttles int64
	peak                  int
	health                string
}

func (a *ledgerAgg) add(rt *core.Runtime, before, after core.Snapshot, steps int, steady time.Duration) {
	a.runtimes++
	a.tp += after.Tp
	a.ta += after.Ta
	a.kernels += after.ProfiledKernels
	a.layers += after.AnalyzedLayers
	a.mem += after.MemTotal()
	maxK := rt.Device().Spec().MaxConcurrentKernels()
	for _, p := range rt.Plans() {
		a.plans++
		a.widthSum += p.Streams
		if p.Streams > a.widthMax {
			a.widthMax = p.Streams
		}
		if p.Streams < 1 || p.Streams > maxK {
			a.badWidth = fmt.Sprintf("%s on %s has width %d, outside 1..%d", p.Key, rt.Device().Name(), p.Streams, maxK)
		}
	}
	n := float64(steps)
	tsStep := float64(after.Ts-before.Ts) / n
	a.tsMs += tsStep / 1e6
	a.disp += float64(after.Dispatches-before.Dispatches) / n
	a.dagDisp += float64(after.DAGDispatches-before.DAGDispatches) / n
	if steady > 0 {
		overhead := float64(after.Tp+after.Ta) + amortizeSteps*tsStep
		a.overheadPct += 100 * overhead / (amortizeSteps * float64(steady))
	}
	if rec := after.Recoveries() + after.LaunchFailures + after.ProfileFailures + after.AnalyzeFailures; rec > 0 {
		a.recoveries += rec
		a.health = after.Health()
	}
	a.throttles += after.BudgetThrottles - before.BudgetThrottles
	if after.BudgetPeak > a.peak {
		a.peak = after.BudgetPeak
	}
}

func (a *ledgerAgg) emit(res *result) {
	m := res.Metrics
	m["core.tracker.tp_ms"] = ms(a.tp)
	m["core.tracker.profiled_kernels"] = float64(a.kernels)
	m["core.tracker.mem_kb"] = float64(a.mem) / 1024
	m["core.analyzer.ta_ms"] = ms(a.ta)
	m["core.analyzer.layers"] = float64(a.layers)
	if a.layers > 0 {
		m["milp.solve_us_mean"] = float64(a.ta.Microseconds()) / float64(a.layers)
	}
	if a.plans > 0 {
		m["core.plans.width_mean"] = float64(a.widthSum) / float64(a.plans)
	}
	m["core.plans.width_max"] = float64(a.widthMax)
	res.check("plan-widths", a.badWidth == "", "%s", a.badWidth)
	r := float64(a.runtimes)
	m["core.runtime.ts_ms_per_step"] = a.tsMs / r
	m["core.runtime.dispatches_per_step"] = a.disp / r
	m["core.runtime.dag_dispatches_per_step"] = a.dagDisp / r
	m["core.overhead_pct"] = a.overheadPct / r
	m["core.recoveries"] = float64(a.recoveries)
	res.check("no-recoveries", a.recoveries == 0, "%d recovery actions without fault injection: %s", a.recoveries, a.health)
	m["core.budget.throttles"] = float64(a.throttles)
	m["core.budget.peak"] = float64(a.peak)
}

// deviceMetrics reports the simulator's per-step work. last is the Stats
// read after the final step (the engine's integrals restart at every
// ResetClocks, so it describes exactly that step).
func deviceMetrics(res *result, spec simgpu.DeviceSpec, before, last simgpu.Stats, steps int) {
	m := res.Metrics
	n := float64(steps)
	m["simgpu.launches_per_step"] = float64(last.Launches-before.Launches) / n
	// Stats itself synchronizes once per read.
	m["simgpu.syncs_per_step"] = float64(last.Syncs-before.Syncs-1) / n
	m["simgpu.flops_per_step"] = last.FLOPsRetired
	m["simgpu.bytes_per_step"] = last.BytesRetired
	if last.DeviceTime > 0 {
		full := float64(spec.SMCount*spec.MaxThreadsPerSM) * float64(last.DeviceTime)
		m["simgpu.sm_busy_pct"] = 100 * last.ThreadNSIntegral / full
	}
	m["simgpu.records_lost"] = float64(last.RecordsLost)
}

// stepMetrics turns the window into the end-to-end step numbers and the
// traced phase breakdown.
func (r *trainRig) stepMetrics(res *result, w *window, before, after counters, steadyTolerance float64) {
	m := res.Metrics
	n := len(w.steps)
	walls := w.walls()
	// The rates are sustained ones, work over the whole window, so a stall
	// in any step shows in them; the step time is the median step, and the
	// fastest step (what the neighbours on a shared box distort least) is
	// reported beside it.
	windowS := sum(walls) / 1e3
	fastest, _ := minMax(walls)
	steady, jitter := steadyOf(res, "steady-virtual", w.virtuals(), steadyTolerance)
	m["simgpu.steady_step_virtual_ms"] = ms(steady)
	m["simgpu.steady_step_jitter_pct"] = jitter
	m["step_virtual_ms"] = ms(amortized(w.warm, steady))
	m["step_wall_ms_p50"] = median(walls)
	m["dnn.step.wall_ms_min"] = fastest
	m["dnn.step.wall_ms_p90"] = percentile(walls, 0.90)
	m["dnn.step.samples"] = float64(n)
	m["samples_per_s"] = float64(r.opts.Batch*n) / windowS
	m["sim_launches_per_s"] = float64(after.dev.Launches-before.dev.Launches) / windowS
	m["allocs_per_step"] = float64(w.mallocs) / float64(n)
	deviceMetrics(res, r.dev.Spec(), before.dev, after.dev, n)
	var led ledgerAgg
	led.add(r.rt, before.ledger, after.ledger, n, steady)
	led.emit(res)
	if r.pipe != nil {
		st := r.pipe.Stats()
		if total := st.Hits + st.Stalls; total > 0 {
			m["data.prefetch.hit_pct"] = 100 * float64(st.Hits) / float64(total)
		}
		m["data.prefetch.stall_ms"] = ms(st.StallTime)
	}
	if r.tr == nil {
		return
	}
	for _, phase := range []string{"data.feed", "dnn.stage", "dnn.forward", "dnn.backward", "dnn.update"} {
		m[phase+".wall_ms"] = median(r.tr.durations(phase)[warmupSteps:])
	}
	checkPhaseCover(res, r.tr)
	if r.ra != nil && after.dev.DeviceTime > 0 {
		// Steady steps are identical, so the last step's device time
		// stands for each of them.
		m["simgpu.concurrency_mean"] = float64(r.ra.busy) / (float64(n) * float64(after.dev.DeviceTime))
	}
	if r.tl != nil {
		kernelMetrics(m, r.tl, n)
		// What dnn itself costs: the phases that launch, minus the time
		// spent inside the launcher (closures included).
		var phases float64
		for _, phase := range []string{"dnn.forward", "dnn.backward", "dnn.update"} {
			phases += sum(r.tr.durations(phase)[warmupSteps:])
		}
		m["dnn.self.wall_ms"] = (phases - ms(r.tl.inCalls)) / float64(n)
	}
}

// kernelMetrics reports the tracing launcher's per-family wall time, per
// step. FLOPs are the cost model's (Kernel.Cost), not counted instructions.
func kernelMetrics(m map[string]float64, tl *traceLauncher, steps int) {
	n := float64(steps)
	for fam, a := range tl.families() {
		m["kernels."+fam+".wall_ms"] = ms(a.Wall) / n
		if fam == "sgemm" {
			m["kernels.sgemm.calls"] = float64(a.Calls) / n
			if a.Wall > 0 {
				m["kernels.sgemm.gflops"] = a.FLOPs / a.Wall.Seconds() / 1e9
			}
		}
	}
}

// checkPhaseCover asserts the tracer loses nothing: the phase spans of a
// step must cover at least 98 % of the step span.
func checkPhaseCover(res *result, tr *tracer) {
	self := selfTimes(tr.spans)
	var stepNs, selfNs int64
	for i, s := range tr.spans {
		if s.Name == "bench.step" {
			stepNs += s.EndNs - s.StartNs
			selfNs += self[i].Nanoseconds()
		}
	}
	res.check("phase-spans-cover-step", stepNs > 0 && float64(selfNs) <= 0.02*float64(stepNs),
		"phase spans leave %.2f%% of the step span uncovered", 100*float64(selfNs)/float64(stepNs+1))
}

// trainWorkload is the part cifar10-train-serve and googlenet-branchy
// share: set up, warm up, measure, report. It returns the rig (for the
// caller to close) only when there is more to do with it: a reference pass,
// and a window a step failed in, end here.
func trainWorkload(cfg runConfig, o trainOpts, stepsPerSecond, steadyTolerance float64) (*result, *trainRig, error) {
	res := newResult(cfg)
	rig, err := newTrainRig(cfg, o, res)
	if err != nil {
		return nil, nil, err
	}
	w := &window{}
	if err := rig.warmUp(w); err != nil {
		rig.close()
		return nil, nil, err
	}
	setup := time.Since(cfg.Start).Seconds()
	before, after, err := rig.measure(w, stepCount(cfg, stepsPerSecond))
	res.Attempted += len(w.steps) + w.failed
	res.Failed += w.failed
	if err != nil {
		res.check("training-steps", false, "%v", err)
		rig.close()
		return res, nil, nil
	}
	res.Hash, res.Steps = w.hash, len(w.steps)
	if cfg.Mode == modeReference {
		rig.close()
		return res, nil, nil
	}
	res.Metrics["setup_s"] = setup
	rig.stepMetrics(res, w, before, after, steadyTolerance)
	return res, rig, nil
}

// addSpeedup runs the naive arm on the trained net (timing-only) and
// reports glp_speedup_x against the amortized GLP4NN step.
func addSpeedup(res *result, rig *trainRig, seed int64) error {
	naive, err := naiveStep(rig.net, rig.dev.Spec(), seed, true)
	if err != nil {
		return fmt.Errorf("naive arm: %w", err)
	}
	res.Metrics["glp_speedup_x"] = ms(naive) / res.Metrics["step_virtual_ms"]
	return nil
}

// googlenetStepsPerSecond: a step takes 0.5-0.6 s on the reference box.
const googlenetStepsPerSecond = 1.6

// dagJitter is how far apart two steady steps of one run may lie on the
// virtual clock with the operator DAG on: goroutine launch order perturbs
// the simulated timeline, by up to 1.8 % over 32 steps on a busy box
// (simgpu.steady_step_jitter_pct reports it). The median moves by 0.3 %.
const dagJitter = 0.05

func runGoogLeNetBranchy(cfg runConfig) (*result, error) {
	o := trainOpts{Net: "GoogLeNet", Device: "P100", Batch: 32, DAG: true, Pool: true, Fuse: true, Prefetch: true}
	if cfg.Quick {
		o.Batch = 8
	}
	if cfg.Mode == modeReference {
		// Same launcher, so the plan widths (part of the numeric contract)
		// match; every host-concurrency feature off.
		o.DAG, o.Pool, o.Fuse, o.Prefetch = false, false, false, false
	}
	o.Traced = cfg.Mode == modeTraced
	res, rig, err := trainWorkload(cfg, o, googlenetStepsPerSecond, dagJitter)
	if err != nil || rig == nil {
		return res, err
	}
	defer rig.close()
	if rig.tr != nil {
		path, err := writeTraceFile(cfg.OutDir, cfg.Workload, cfg.Seed, rig.tr, keyRows(rig.tl, rig.ra))
		if err != nil {
			return nil, err
		}
		res.TraceFile = path
	}
	if err := addSpeedup(res, rig, cfg.Seed); err != nil {
		return nil, err
	}
	return res, nil
}
